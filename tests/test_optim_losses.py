"""Unit tests for optimizers, loss functions and serialization."""

import numpy as np
import pytest
from reference import leaf

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Linear
from repro.nn.losses import cosine_similarity
from repro.nn.optim import Adam, train_epochs
from repro.nn.serialize import load_weights, save_weights
from repro.nn.tensor import Tensor


def _quadratic_step(optimizer_cls, **kw):
    target = np.array([1.0, -2.0, 3.0])
    parameter = leaf(np.zeros(3))
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
            Adam([leaf(np.zeros(1))], lr=0.0)

    def test_clip_grad_norm(self):
        parameter = leaf(np.zeros(4))
        parameter.grad = np.full(4, 10.0)
        optimizer = Adam([parameter], lr=0.1)
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_step_skips_missing_grad(self):
        parameter = leaf(np.ones(2))
        Adam([parameter], lr=0.1).step()
        np.testing.assert_array_equal(parameter.data, np.ones(2))


class TestTrainEpochs:
    """The one training loop every trainer runs."""

    @staticmethod
    def _parameter():
        return leaf(np.zeros(2))

    def test_visit_order_is_one_permutation_per_epoch(self):
        seen = []

        def example_loss(index):
            seen.append(index)
            return None

        train_epochs(
            Adam([self._parameter()]), 7, example_loss,
            epochs=3, rng=np.random.RandomState(5), name="test",
        )
        reference = np.random.RandomState(5)
        assert seen == [
            i for _ in range(3) for i in reference.permutation(7)
        ]

    def test_none_loss_takes_no_step(self):
        parameter = self._parameter()
        optimizer = Adam([parameter], lr=0.1)

        def example_loss(index):
            if index % 2:
                return None
            return (parameter * parameter).sum()

        train_epochs(
            optimizer, 5, example_loss,
            epochs=2, rng=np.random.RandomState(0), name="test",
        )
        assert optimizer._t == 2 * 3  # indices 0, 2 and 4, twice
        idle = Adam([self._parameter()])
        assert train_epochs(
            idle, 4, lambda index: None,
            epochs=2, rng=np.random.RandomState(0), name="test",
        ) == [0.0, 0.0]
        assert idle._t == 0

    def test_epoch_means_match_hand_computation(self):
        parameter = self._parameter()

        def example_loss(index):
            if index == 3:
                return None
            # the value is the index; the gradient path is real
            return (parameter * 0.0).sum() + float(index)

        losses = train_epochs(
            Adam([parameter]), 5, example_loss,
            epochs=2, rng=np.random.RandomState(1), name="test",
        )
        assert losses == [(0 + 1 + 2 + 4) / 4] * 2


class TestLosses:
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
        path = tmp_path / "weights.npz"
        np.savez(path, weight=Linear(4, 3).weight.data)  # no "bias"
        with pytest.raises(KeyError):
            load_weights(Linear(4, 3), path)
