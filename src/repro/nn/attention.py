"""Multi-head self-attention (Vaswani et al.), batched.

Input: (batch, seq, dim) plus the additive padding bias of the batch's
attention mask (:func:`padding_bias`): padding positions receive a large
negative bias before softmax.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.precision import TRAINING_DTYPE, mask_bias_value

from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor


def padding_bias(mask: np.ndarray) -> np.ndarray:
    """Additive attention bias (B, 1, 1, S) from a 1/0 mask (B, S).

    Attended positions get 0, padded positions a dtype-scaled large
    negative (see :func:`repro.precision.mask_bias_value`) that exp
    underflows to exactly zero after the softmax shift. Computed once
    per batch — the stack reuses one bias across every layer and head.
    """
    inverted = 1.0 - np.asarray(mask, dtype=TRAINING_DTYPE)
    return (inverted * mask_bias_value(TRAINING_DTYPE))[:, None, None, :]


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: Optional[np.random.RandomState] = None,
    ):
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        rng = rng or np.random.RandomState(0)
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.output = Linear(dim, dim, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, S, D) -> (B, H, S, Dh)
        return x.reshape(batch, seq, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, bias: Optional[np.ndarray]) -> Tensor:
        """``bias`` is the (B, 1, 1, S) additive padding bias the encoder
        stack computes once per batch and passes down to every layer, or
        ``None`` when nothing is padded."""
        batch, seq, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq)
        k = self._split_heads(self.key(x), batch, seq)
        v = self._split_heads(self.value(x), batch, seq)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if bias is not None:
            scores = scores + Tensor(bias)
        attn = scores.softmax(axis=-1)
        context = attn @ v  # (B, H, S, Dh)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.output(merged)
