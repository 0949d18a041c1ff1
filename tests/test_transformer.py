"""Unit tests for attention and the transformer encoder."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention, padding_bias
from repro.nn.tensor import Tensor
from repro.nn.transformer import (
    RESIDUAL_SCALE,
    TransformerEncoder,
    TransformerEncoderLayer,
)


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(dim=8, n_heads=2)
        out = attn(Tensor(np.random.randn(2, 5, 8)), None)
        assert out.shape == (2, 5, 8)

    def test_dim_head_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=7, n_heads=2)

    def test_padding_mask_blocks_information(self):
        # changing a masked position must not change unmasked outputs
        rng = np.random.RandomState(0)
        attn = MultiHeadSelfAttention(dim=8, n_heads=2, rng=rng)
        x = rng.randn(1, 4, 8)
        bias = padding_bias(np.array([[1.0, 1.0, 1.0, 0.0]]))
        out1 = attn(Tensor(x), bias).numpy()
        x2 = x.copy()
        x2[0, 3] += 100.0  # perturb the padded position
        out2 = attn(Tensor(x2), bias).numpy()
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-8)

    def test_gradients_flow_to_all_projections(self):
        attn = MultiHeadSelfAttention(dim=8, n_heads=2)
        out = attn(Tensor(np.random.randn(1, 3, 8)), None).sum()
        out.backward()
        for parameter in attn.parameters():
            assert parameter.grad is not None


class TestEncoderLayer:
    def test_residual_scale_near_identity(self):
        # both residual branches start at RESIDUAL_SCALE of their
        # Xavier size: an untrained block moves its input only a little
        rng = np.random.RandomState(0)
        layer = TransformerEncoderLayer(8, 2, rng=rng)
        x = rng.randn(1, 4, 8)
        out = layer(Tensor(x), None).numpy()
        assert np.abs(out - x).max() < 4 * RESIDUAL_SCALE * np.abs(x).max()

    def test_full_scale_changes_input(self):
        layer = TransformerEncoderLayer(8, 2)
        x = np.random.randn(1, 4, 8)
        out = layer(Tensor(x), None).numpy()
        assert not np.allclose(out, x)


class TestTransformerEncoder:
    def _encoder(self, **kw):
        defaults = dict(vocab_size=20, dim=16, n_layers=2, n_heads=2, max_len=10)
        defaults.update(kw)
        return TransformerEncoder(**defaults)

    def test_forward_shape(self):
        enc = self._encoder()
        out = enc(np.array([[2, 5, 6, 0], [2, 7, 0, 0]]))
        assert out.shape == (2, 4, 16)

    def test_1d_input_promoted(self):
        enc = self._encoder()
        out = enc(np.array([2, 5, 6]))
        assert out.shape == (1, 3, 16)

    def test_too_long_rejected(self):
        enc = self._encoder(max_len=4)
        with pytest.raises(ValueError):
            enc(np.zeros((1, 5), dtype=int))

    def test_padding_invariance(self):
        # extra padding must not change the unpadded token states
        enc = self._encoder()
        short = enc(np.array([[2, 5, 6]])).numpy()
        padded = enc(np.array([[2, 5, 6, 0, 0]])).numpy()
        np.testing.assert_allclose(short[0], padded[0, :3], atol=1e-8)

    def test_deterministic_same_seed(self):
        a = self._encoder(seed=3)
        b = self._encoder(seed=3)
        ids = np.array([[2, 4, 6]])
        np.testing.assert_array_equal(a(ids).numpy(), b(ids).numpy())

    def test_all_parameters_trainable(self):
        enc = self._encoder(n_layers=1)
        out = enc(np.array([[2, 5, 6]])).sum()
        out.backward()
        missing = [
            name
            for name, parameter in enc.named_parameters()
            if parameter.grad is None
        ]
        assert missing == []
