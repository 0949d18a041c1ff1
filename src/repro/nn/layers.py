"""Neural-network modules over the autograd tensor."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.precision import TRAINING_DTYPE

from repro.nn.tensor import Tensor


class Module:
    """Base class: parameter registry, train/eval mode, named traversal."""

    def __init__(self):
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        super().__setattr__(name, value)

    def parameters(self) -> List[Tensor]:
        """All parameters of this module and its children."""
        return [tensor for _, tensor in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, tensor in self._parameters.items():
            yield (f"{prefix}{name}", tensor)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """This module and every descendant, depth-first, with dotted names.

        The inference baker walks this to prove it recognizes every
        module in a stack before trusting its fused plan of it.
        """
        yield (prefix, self)
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}.{child_name}" if prefix else child_name
            yield from child.named_modules(prefix=child_prefix)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self._modules.values():
            child.eval()
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map y = x W + b with Xavier-uniform initialization."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.RandomState] = None, bias: bool = True):
        super().__init__()
        rng = rng or np.random.RandomState(0)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = self.register_parameter(
            "weight",
            Tensor(rng.uniform(-bound, bound, size=(in_features, out_features))),
        )
        self.bias = (
            self.register_parameter("bias", Tensor(np.zeros(out_features)))
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id -> vector lookup with scatter-add backward."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.RandomState] = None,
                 padding_idx: Optional[int] = None):
        super().__init__()
        rng = rng or np.random.RandomState(0)
        data = rng.normal(0.0, 0.02, size=(num_embeddings, dim))
        if padding_idx is not None:
            data[padding_idx] = 0.0
        self.weight = self.register_parameter("weight", Tensor(data))
        self.padding_idx = padding_idx

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        weight = self.weight
        out_data = weight.data[ids]
        padding_idx = self.padding_idx

        def grad_fn(g):
            grad = np.zeros_like(weight.data)
            np.add.at(grad, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
            if padding_idx is not None:
                grad[padding_idx] = 0.0
            return grad

        return Tensor(out_data, parents=(weight,), grad_fns=(grad_fn,))


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(dim)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(dim)))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (variance + self.eps).pow(-0.5)
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.RandomState] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.RandomState(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.rand(*x.shape) < keep).astype(TRAINING_DTYPE) / keep
        return x * Tensor(mask)

