"""Gradient checks for the autograd engine.

Every op is validated against central finite differences.
"""

import numpy as np
import pytest
from reference import leaf

from repro.nn.tensor import Tensor


def numeric_gradient(fn, tensors, eps=1e-6):
    """Central finite differences of sum(fn(*tensors)) w.r.t. each tensor."""
    grads = []
    for x in tensors:
        grad = np.zeros_like(x.data)
        it = np.nditer(x.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = x.data[idx]

            def value():
                out = fn(*tensors)
                return out.sum().item() if out.data.ndim else out.item()

            x.data[idx] = orig + eps
            plus = value()
            x.data[idx] = orig - eps
            minus = value()
            x.data[idx] = orig
            grad[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        grads.append(grad)
    return grads


def check(fn, shapes, seed=0, tol=1e-4):
    rng = np.random.RandomState(seed)
    tensors = [leaf(rng.randn(*s)) for s in shapes]
    out = fn(*tensors)
    loss = out.sum() if out.data.ndim else out
    loss.backward()
    numeric = numeric_gradient(fn, tensors)
    for tensor, expected in zip(tensors, numeric):
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, expected, atol=tol, rtol=tol)


class TestArithmeticGradients:
    def test_add_broadcast(self):
        check(lambda a, b: a + b, [(3, 4), (4,)])

    def test_mul_broadcast(self):
        check(lambda a, b: a * b, [(2, 3), (1, 3)])

    def test_sub(self):
        check(lambda a, b: a - b, [(3,), (3,)])

    def test_div(self):
        check(lambda a, b: a / (b * b + 1.0), [(3,), (3,)])

    def test_pow(self):
        check(lambda a: (a * a + 1.0).pow(0.5), [(4,)])

    def test_scalar_mix(self):
        check(lambda a: 2.0 * a + 1.0 - a / 2.0, [(5,)])


class TestMatmulGradients:
    def test_2d(self):
        check(lambda a, b: a @ b, [(3, 4), (4, 5)])

    def test_batched(self):
        check(lambda a, b: a @ b, [(2, 3, 4), (2, 4, 5)])

    def test_vector_matrix(self):
        check(lambda a, b: a @ b, [(4,), (4, 3)])

    def test_matrix_vector(self):
        check(lambda a, b: a @ b, [(3, 4), (4,)])

    def test_vector_vector(self):
        check(lambda a, b: a @ b, [(4,), (4,)])


class TestUnaryGradients:
    def test_exp_log(self):
        check(lambda a: ((a * a) + 1.0).log().exp(), [(3,)])

    def test_tanh(self):
        check(lambda a: a.tanh(), [(4,)])

    def test_gelu(self):
        check(lambda a: a.gelu(), [(6,)])


class TestReductionGradients:
    def test_sum_all(self):
        check(lambda a: a.sum(), [(3, 4)])

    def test_sum_axis_keepdims(self):
        check(lambda a: a.sum(axis=1, keepdims=True), [(3, 4)])

    def test_mean(self):
        check(lambda a: a.mean(axis=-1), [(2, 5)])

    def test_max(self):
        check(lambda a: a.max(axis=-1), [(3, 5)])

    def test_softmax(self):
        check(lambda a: a.softmax(axis=-1), [(2, 4)])

    def test_softmax_log(self):
        check(lambda a: a.softmax(axis=-1).log(), [(3, 4)])


class TestShapeGradients:
    def test_reshape(self):
        check(lambda a: a.reshape(6), [(2, 3)])

    def test_transpose(self):
        check(lambda a: a.transpose(1, 0), [(2, 3)])

    def test_swapaxes(self):
        check(lambda a: a.swapaxes(0, 2), [(2, 3, 4)])

    def test_getitem(self):
        check(lambda a: a[1:3], [(5, 2)])

    def test_stack(self):
        check(lambda a, b: Tensor.stack([a, b]), [(3,), (3,)])


class TestBackwardMechanics:
    def test_grad_accumulates_on_reuse(self):
        a = leaf(np.ones(3))
        out = (a * 2.0 + a * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))

    def test_no_grad_without_flag(self):
        a = Tensor(np.ones(3))
        out = (a * 2.0).sum()
        out.backward()
        assert a.grad is None

    def test_zero_grad(self):
        a = leaf(np.ones(3))
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = leaf(np.ones(2))
        out = a
        for _ in range(500):
            out = out * 1.001
        out.sum().backward()
        assert a.grad is not None

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_max_ties_split_gradient(self):
        a = leaf(np.array([1.0, 1.0, 0.0]))
        a.max(axis=-1).backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0.0])
