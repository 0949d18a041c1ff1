"""Reverse-mode automatic differentiation over numpy arrays.

A define-by-run engine in the style of micrograd/PyTorch: every operation
records its parents and a gradient function; :meth:`Tensor.backward` walks
the graph in reverse topological order accumulating gradients.

Supports everything the transformer encoder needs: broadcasting
element-wise arithmetic, matmul over batched operands, reductions (sum,
mean, max), softmax, layer-norm primitives (sqrt, pow), GELU (via erf),
slicing, reshaping and axis transposition.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import erf as _erf

from repro.precision import TRAINING_DTYPE

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(TRAINING_DTYPE, copy=False)
    return np.asarray(value, dtype=TRAINING_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # remove extra leading axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over broadcast (size-1) axes
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autograd tape.

    Only tensors created with ``requires_grad=True`` (parameters) and
    values computed from them accumulate gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        grad_fns: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._grad_fns = tuple(grad_fns)

    # -- graph plumbing ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        """The scalar value of a 0-d/1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(
            self.data
        )

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)
        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad = node.grad + node_grad
            for parent, grad_fn in zip(node._parents, node._grad_fns):
                if not parent.requires_grad:
                    continue
                contribution = grad_fn(node_grad)
                existing = grads.get(id(parent))
                grads[id(parent)] = (
                    contribution if existing is None else existing + contribution
                )

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data
        return Tensor(
            out_data,
            parents=(self, other),
            grad_fns=(
                lambda g: _unbroadcast(g, self.data.shape),
                lambda g: _unbroadcast(g, other.data.shape),
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), grad_fns=(lambda g: -g,))

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data
        return Tensor(
            out_data,
            parents=(self, other),
            grad_fns=(
                lambda g: _unbroadcast(g * other.data, self.data.shape),
                lambda g: _unbroadcast(g * self.data, other.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other):
        return self._coerce(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Element-wise power with a scalar exponent."""
        out_data = np.power(self.data, exponent)
        base = self.data

        def grad_fn(g):
            return g * exponent * np.power(base, exponent - 1.0)

        return Tensor(out_data, parents=(self,), grad_fns=(grad_fn,))

    def __matmul__(self, other):
        other = self._coerce(other)
        # promote 1-D operands so the general gradient rule applies, then
        # squeeze the synthetic axis back out (reshape is autograd-tracked)
        if self.ndim == 1 and other.ndim == 1:
            out = self.reshape(1, -1)._matmul2(other.reshape(-1, 1))
            return out.reshape(())
        if self.ndim == 1:
            out = self.reshape(1, -1)._matmul2(other)
            return out.reshape(out.shape[:-2] + out.shape[-1:])
        if other.ndim == 1:
            out = self._matmul2(other.reshape(-1, 1))
            return out.reshape(out.shape[:-1])
        return self._matmul2(other)

    def _matmul2(self, other: "Tensor") -> "Tensor":
        out_data = self.data @ other.data

        def grad_left(g):
            result = g @ np.swapaxes(other.data, -1, -2)
            return _unbroadcast(result, self.data.shape)

        def grad_right(g):
            result = np.swapaxes(self.data, -1, -2) @ g
            return _unbroadcast(result, other.data.shape)

        return Tensor(out_data, parents=(self, other), grad_fns=(grad_left, grad_right))

    # -- unary math -------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor(out_data, parents=(self,), grad_fns=(lambda g: g * out_data,))

    def log(self) -> "Tensor":
        return Tensor(
            np.log(self.data), parents=(self,), grad_fns=(lambda g: g / self.data,)
        )

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor(
            out_data, parents=(self,), grad_fns=(lambda g: g * (1.0 - out_data**2),)
        )

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor(
            self.data * mask, parents=(self,), grad_fns=(lambda g: g * mask,)
        )

    def gelu(self) -> "Tensor":
        """Exact GELU: x * Phi(x), using the error function."""
        x = self.data
        cdf = 0.5 * (1.0 + _erf(x / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        out_data = x * cdf
        return Tensor(
            out_data, parents=(self,), grad_fns=(lambda g: g * (cdf + x * pdf),)
        )

    # -- reductions -------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def grad_fn(g):
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, shape).copy()

        return Tensor(out_data, parents=(self,), grad_fns=(grad_fn,))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        """Maximum along one axis; gradient flows to the argmax elements."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = out_data if keepdims else np.expand_dims(out_data, axis)
        mask = (self.data == expanded).astype(TRAINING_DTYPE)
        # split gradient across ties for determinism
        mask /= mask.sum(axis=axis, keepdims=True)

        def grad_fn(g):
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return mask * g_expanded

        return Tensor(out_data, parents=(self,), grad_fns=(grad_fn,))

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def grad_fn(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            return out_data * (g - dot)

        return Tensor(out_data, parents=(self,), grad_fns=(grad_fn,))

    # -- shape ops ----------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return Tensor(
            self.data.reshape(shape),
            parents=(self,),
            grad_fns=(lambda g: g.reshape(original),),
        )

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))
        return Tensor(
            self.data.transpose(axes),
            parents=(self,),
            grad_fns=(lambda g: g.transpose(inverse),),
        )

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return Tensor(
            np.swapaxes(self.data, a, b),
            parents=(self,),
            grad_fns=(lambda g: np.swapaxes(g, a, b),),
        )

    def __getitem__(self, key) -> "Tensor":
        shape = self.data.shape

        def grad_fn(g):
            out = np.zeros(shape)
            np.add.at(out, key, g)
            return out

        return Tensor(self.data[key], parents=(self,), grad_fns=(grad_fn,))

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis``."""
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def make_grad_fn(start: int, stop: int):
            def grad_fn(g):
                slicer = [slice(None)] * g.ndim
                slicer[axis] = slice(start, stop)
                return g[tuple(slicer)]

            return grad_fn

        grad_fns = [
            make_grad_fn(int(offsets[i]), int(offsets[i + 1]))
            for i in range(len(tensors))
        ]
        return Tensor(data, parents=tuple(tensors), grad_fns=tuple(grad_fns))

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Stack same-shape tensors along a new axis."""
        data = np.stack([t.data for t in tensors], axis=axis)

        def make_grad_fn(index: int):
            def grad_fn(g):
                return np.take(g, index, axis=axis)

            return grad_fn

        return Tensor(
            data,
            parents=tuple(tensors),
            grad_fns=tuple(make_grad_fn(i) for i in range(len(tensors))),
        )
