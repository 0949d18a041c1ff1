"""The BERT-style transformer encoder stack.

Token embeddings + learned position embeddings, N pre-norm encoder layers
(self-attention + GELU feed-forward, residual connections), final layer
norm. Forward takes integer id matrices and padding masks and returns
per-token hidden states; :class:`~repro.encoder.minibert.MiniBertEncoder`
pools them into sentence embeddings.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.precision import TRAINING_DTYPE

from repro.nn.attention import MultiHeadSelfAttention, padding_bias
from repro.nn.layers import Embedding, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor

FFN_MULTIPLIER = 4  # feed-forward width per model dimension, as in BERT
#: GPT-2-style scaled residual-branch init: the block starts near the
#: identity, so token-level information survives an untrained stack and
#: training grows contextualization gradually
RESIDUAL_SCALE = 0.05
POSITION_EMBED_SCALE = 0.02  # std of the position embeddings at init


class TransformerEncoderLayer(Module):
    """One pre-norm encoder block."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: Optional[np.random.RandomState] = None,
    ):
        super().__init__()
        rng = rng or np.random.RandomState(0)
        ffn_dim = dim * FFN_MULTIPLIER
        self.attention = MultiHeadSelfAttention(dim, n_heads, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn_in = Linear(dim, ffn_dim, rng=rng)
        self.ffn_out = Linear(ffn_dim, dim, rng=rng)
        self.attention.output.weight.data *= RESIDUAL_SCALE
        self.ffn_out.weight.data *= RESIDUAL_SCALE

    def forward(self, x: Tensor, bias: Optional[np.ndarray]) -> Tensor:
        x = x + self.attention(self.norm1(x), bias)
        return x + self.ffn_out(self.ffn_in(self.norm2(x)).gelu())


class TransformerEncoder(Module):
    """The full encoder: embeddings -> N layers -> final norm.

    Parameters mirror a scaled-down BERT; defaults give a model small
    enough to fine-tune on a CPU in seconds while keeping the architecture
    faithful.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int = 64,
        n_layers: int = 2,
        n_heads: int = 2,
        max_len: int = 64,
        pad_id: int = 0,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.RandomState(seed)
        self.dim = dim
        self.max_len = max_len
        self.pad_id = pad_id
        self.token_embedding = Embedding(vocab_size, dim, rng=rng, padding_idx=pad_id)
        self.token_embedding.weight.data = rng.normal(
            0.0, 1.0 / np.sqrt(dim), size=(vocab_size, dim)
        )
        self.token_embedding.weight.data[pad_id] = 0.0
        self.position_embedding = Embedding(max_len, dim, rng=rng)
        self.position_embedding.weight.data = rng.normal(
            0.0, POSITION_EMBED_SCALE, size=(max_len, dim)
        )
        self.layers = [
            TransformerEncoderLayer(dim, n_heads, rng=rng)
            for _ in range(n_layers)
        ]
        for i, layer in enumerate(self.layers):
            self.register_module(f"layer{i}", layer)
        self.final_norm = LayerNorm(dim)

    def forward(
        self, ids: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Encode ``ids`` (B, S) into hidden states (B, S, D)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.shape[1] > self.max_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_len {self.max_len}"
            )
        if mask is None:
            mask = (ids != self.pad_id).astype(TRAINING_DTYPE)
        # one additive bias per batch, shared by every layer (the
        # per-layer (1 - mask) * -inf rebuild was pure waste: the bias
        # is a function of the mask alone)
        bias = padding_bias(mask)
        positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        x = self.token_embedding(ids) + self.position_embedding(positions)
        for layer in self.layers:
            x = layer(x, bias)
        return self.final_norm(x)
