"""Unit tests for nn layers: Linear, Embedding, LayerNorm, Dropout."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor


class TestModule:
    def test_parameter_registration(self):
        layer = Linear(3, 2)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_modules(self):
        attention = MultiHeadSelfAttention(4, 2)
        assert len(attention.parameters()) == 8
        names = [n for n, _ in attention.named_parameters()]
        assert "query.weight" in names and "output.bias" in names

    def test_train_eval_propagates(self):
        attention = MultiHeadSelfAttention(4, 2, dropout=0.5)
        attention.eval()
        assert not attention.dropout.training
        attention.train()
        assert attention.dropout.training

    def test_zero_grad(self):
        layer = Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLinear:
    def test_shape(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.zeros((2, 5))))
        assert out.shape == (2, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradient_flows(self):
        layer = Linear(3, 1)
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad.shape == (3, 1)
        np.testing.assert_allclose(layer.bias.grad, [4.0])

    def test_deterministic_with_rng(self):
        a = Linear(3, 3, rng=np.random.RandomState(1))
        b = Linear(3, 3, rng=np.random.RandomState(1))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_padding_row_zero(self):
        emb = Embedding(10, 4, padding_idx=0)
        np.testing.assert_array_equal(emb.weight.data[0], np.zeros(4))

    def test_scatter_add_backward(self):
        emb = Embedding(5, 3)
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], np.full(3, 2.0))
        np.testing.assert_allclose(emb.weight.grad[2], np.full(3, 1.0))
        np.testing.assert_allclose(emb.weight.grad[3], np.zeros(3))

    def test_padding_gets_no_gradient(self):
        emb = Embedding(5, 3, padding_idx=0)
        out = emb(np.array([0, 1]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))


class TestLayerNorm:
    def test_output_normalized(self):
        norm = LayerNorm(8)
        x = Tensor(np.random.RandomState(0).randn(3, 8) * 5 + 2)
        out = norm(x).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_trainable(self):
        norm = LayerNorm(4)
        out = norm(Tensor(np.random.randn(2, 4))).sum()
        out.backward()
        assert norm.gamma.grad is not None and norm.beta.grad is not None


class TestDropout:
    def test_eval_mode_identity(self):
        drop = Dropout(0.5)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(drop(x).numpy(), x.numpy())

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=np.random.RandomState(0))
        out = drop(Tensor(np.ones((100, 100)))).numpy()
        assert (out == 0).any()
        # surviving entries are scaled by 1/keep
        assert np.isclose(out[out > 0].mean(), 2.0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_p_zero_identity(self):
        drop = Dropout(0.0)
        x = Tensor(np.ones(5))
        np.testing.assert_array_equal(drop(x).numpy(), x.numpy())
