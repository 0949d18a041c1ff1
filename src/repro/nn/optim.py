"""The optimizer: Adam (the PLM fine-tuning default)."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor

#: Global gradient-norm clip of the one training loop, :func:`train_epochs`.
CLIP_NORM = 5.0
#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


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
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 1e-3):
        super().__init__(parameters, lr)
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = BETA1, BETA2
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self._m[i] is None:
                self._m[i] = np.zeros_like(parameter.data)
                self._v[i] = np.zeros_like(parameter.data)
            self._m[i] = b1 * self._m[i] + (1 - b1) * grad
            self._v[i] = b2 * self._v[i] + (1 - b2) * grad * grad
            m_hat = self._m[i] / (1 - b1**self._t)
            v_hat = self._v[i] / (1 - b2**self._t)
            parameter.data = parameter.data - self.lr * m_hat / (
                np.sqrt(v_hat) + EPS
            )


def train_epochs(
    optimizer: Optimizer,
    n_examples: int,
    example_loss: Callable[[int], Optional[Tensor]],
    *,
    epochs: int,
    rng: np.random.RandomState,
    name: str,
    verbose: bool = False,
) -> List[float]:
    """The training loop every trainer in the repo runs; per-epoch mean losses.

    Each epoch draws one ``rng.permutation(n_examples)`` and hands its
    indices, one at a time, to ``example_loss``, which returns that
    example's loss, or None to skip it without touching the optimizer.
    Each loss steps once: zero the optimizer's gradients, backward, clip
    to :data:`CLIP_NORM`, step. An epoch's mean is 0.0 when every example
    was skipped.
    """
    losses: List[float] = []
    for epoch in range(epochs):
        epoch_losses: List[float] = []
        for index in rng.permutation(n_examples):
            loss = example_loss(index)
            if loss is None:
                continue
            optimizer.zero_grad()
            loss.backward()
            optimizer.clip_grad_norm(CLIP_NORM)
            optimizer.step()
            epoch_losses.append(loss.item())
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
        losses.append(mean_loss)
        if verbose:  # pragma: no cover - console output
            print(f"[{name}] epoch {epoch + 1}/{epochs} loss={mean_loss:.4f}")
    return losses
