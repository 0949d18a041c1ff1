"""Unit tests for optimizers, loss functions and serialization."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Linear
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cosine_similarity,
    cross_entropy,
)
from repro.nn.optim import Adam
from repro.nn.serialize import load_weights, save_weights
from repro.nn.tensor import Tensor


def _quadratic_step(optimizer_cls, **kw):
    target = np.array([1.0, -2.0, 3.0])
    parameter = Tensor(np.zeros(3), requires_grad=True)
    optimizer = optimizer_cls([parameter], **kw)
    for _ in range(200):
        optimizer.zero_grad()
        loss = ((parameter - Tensor(target)) * (parameter - Tensor(target))).sum()
        loss.backward()
        optimizer.step()
    return parameter.data, target


class TestOptimizers:
    def test_adam_converges(self):
        value, target = _quadratic_step(Adam, lr=0.1)
        np.testing.assert_allclose(value, target, atol=1e-2)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.zeros(1), requires_grad=True)], lr=0.0)

    def test_clip_grad_norm(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.full(4, 10.0)
        optimizer = Adam([parameter], lr=0.1)
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_step_skips_missing_grad(self):
        parameter = Tensor(np.ones(2), requires_grad=True)
        Adam([parameter], lr=0.1).step()
        np.testing.assert_array_equal(parameter.data, np.ones(2))

    def test_weight_decay_shrinks(self):
        parameter = Tensor(np.ones(2) * 10.0, requires_grad=True)
        optimizer = Adam([parameter], lr=0.1, weight_decay=1.0)
        parameter.grad = np.zeros(2)
        optimizer.step()
        assert np.all(parameter.data < 10.0)


class TestLosses:
    def test_bce_matches_reference(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]))
        targets = np.array([1.0, 1.0, 0.0])
        loss = binary_cross_entropy_with_logits(logits, targets).item()
        p = 1 / (1 + np.exp(-logits.data))
        reference = -(
            targets * np.log(p) + (1 - targets) * np.log(1 - p)
        ).mean()
        assert loss == pytest.approx(reference, abs=1e-9)

    def test_bce_pos_weight(self):
        logits = Tensor(np.array([-2.0, 1.0]))
        targets = np.array([1.0, 0.0])
        unweighted = binary_cross_entropy_with_logits(logits, targets).item()
        weighted = binary_cross_entropy_with_logits(
            logits, targets, pos_weight=9.0
        ).item()
        assert weighted > unweighted  # positive example dominates

    def test_bce_extreme_logits_stable(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item()) and loss.item() < 1e-6

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.random.RandomState(0).randn(3, 4), requires_grad=True)
        loss = cross_entropy(logits, np.array([1, 0, 0]), ignore_index=0)
        loss.backward()
        np.testing.assert_allclose(logits.grad[1], np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(logits.grad[2], np.zeros(4), atol=1e-12)

    def test_cosine_identical(self):
        a = Tensor(np.array([[1.0, 2.0, 3.0]]))
        assert cosine_similarity(a, a).item() == pytest.approx(1.0, abs=1e-6)

    def test_cosine_orthogonal(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([[0.0, 1.0]]))
        assert cosine_similarity(a, b).numpy()[0] == pytest.approx(0.0, abs=1e-6)

    def test_cosine_vector_matrix_shape(self):
        a = Tensor(np.random.randn(4))
        b = Tensor(np.random.randn(6, 4))
        assert cosine_similarity(a, b).shape == (6,)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = MultiHeadSelfAttention(4, 2, rng=np.random.RandomState(1))
        path = tmp_path / "weights.npz"
        save_weights(model, path)
        other = MultiHeadSelfAttention(4, 2, rng=np.random.RandomState(2))
        load_weights(other, path)
        for (_, a), (_, b) in zip(
            model.named_parameters(), other.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = Linear(4, 3)
        path = tmp_path / "weights.npz"
        save_weights(model, path)
        wrong = Linear(4, 5)
        with pytest.raises(ValueError):
            load_weights(wrong, path)

    def test_missing_parameter_rejected(self, tmp_path):
        model = Linear(4, 3, bias=False)
        path = tmp_path / "weights.npz"
        save_weights(model, path)
        bigger = Linear(4, 3)
        with pytest.raises(KeyError):
            load_weights(bigger, path)
