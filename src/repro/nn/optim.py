"""The optimizer: Adam (the PLM fine-tuning default)."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor

#: Global gradient-norm clip of every training loop in the repo (MLM
#: pre-training, retriever, updater, path ranker, joint, baselines).
CLIP_NORM = 5.0


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, parameters: Sequence[Tensor], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm; returns the pre-clip norm."""
        total = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                total += float((parameter.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad = parameter.grad * scale
        return norm


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction and optional weight decay."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * parameter.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(parameter.data)
                self._v[i] = np.zeros_like(parameter.data)
            self._m[i] = b1 * self._m[i] + (1 - b1) * grad
            self._v[i] = b2 * self._v[i] + (1 - b2) * grad * grad
            m_hat = self._m[i] / (1 - b1**self._t)
            v_hat = self._v[i] / (1 - b2**self._t)
            parameter.data = parameter.data - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )
