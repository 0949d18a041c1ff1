"""Graph-free fused inference for the transformer encoder stack.

Training wants the autograd graph; inference only wants the numbers.
Routing ``encode_numpy`` through :class:`~repro.nn.tensor.Tensor` made
every encoder call pay the training tax twice over — a grad-closure
allocation per op, and float64 temporaries for all of them regardless of
the precision policy, with the cast to float32 happening only at the
very end. At ingest scale (ROADMAP: encoder tokens/sec is the system's
real ingest ceiling) that tax dominates.

:class:`InferenceSession` removes it, tinygrad-style: walk the module
tree **once**, bake the weights into a flat plan of fused numpy kernels,
then run forwards with no graph, no per-op dispatch, and almost no
temporaries:

* **baked weights** — Q/K/V projections concatenate into one ``(D, 3D)``
  matrix so each layer does a single input matmul; every table is cast
  to the session dtype at bake time, so float32 mode *computes* in
  float32 instead of computing float64 and casting after;
* **fused kernels** — :func:`fused_layer_norm` (single-pass
  ``E[x^2] - mean^2`` variance into a caller-provided out-buffer),
  :func:`fused_gelu` (exact erf GELU in place), :func:`fused_softmax`
  (shift/exp/normalize entirely in place);
* **one padding bias per batch** — computed from the mask once and
  reused by every layer and head, with a dtype-aware magnitude from
  :func:`repro.precision.mask_bias_value` instead of a hardcoded
  ``-1e9``;
* **scratch reuse** — one set of QKV/score/context/projection buffers is
  allocated per forward call and reused across all layers (per-call, so
  concurrent serving threads never share scratch), with residual adds
  done in place.

Sessions are immutable snapshots: :meth:`InferenceSession.stale` reports
when any source parameter's array has been replaced (optimizer steps and
``load_weights`` both *reassign* ``.data``), and the owner builds a
fresh session. Training, autograd, and gradcheck stay on the graph path
untouched — this module must not touch the autograd engine at all: a
``Tensor`` on this path promotes to float64, which the float32 parity
test in ``tests/test_infer.py`` catches.

Parity: in float64 mode fused [CLS] states match the graph path to
<= 1e-6 (in practice ~1e-12; the only reordered math is the layer-norm
variance and pooling reductions). Float32 mode differs from the float64
graph by ordinary float32 rounding, ~1e-6 relative.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.special import erf as _erf

from repro.precision import TRAINING_DTYPE, mask_bias_value

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer

#: module types the baker knows how to flatten; anything else in the
#: stack means the fused plan would silently diverge, so baking refuses
_BAKEABLE = (
    TransformerEncoder,
    TransformerEncoderLayer,
    MultiHeadSelfAttention,
    LayerNorm,
    Linear,
    Embedding,
    Dropout,
)


# -- fused kernels -----------------------------------------------------------


def fused_layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Layer norm over the last axis in one pass over the data.

    The variance comes from ``E[x^2] - mean^2`` (the sum of squares via
    einsum, so no centered ``(..., D)`` temporary is ever formed) and is
    clamped at zero against cancellation — ``eps`` dominates the floor
    either way. ``out`` must not alias ``x``: the centered subtraction
    reads ``x`` while writing ``out``.
    """
    if out is None:
        out = np.empty_like(x)
    elif out is x:
        raise ValueError("fused_layer_norm out-buffer must not alias x")
    mean = x.mean(axis=-1, keepdims=True)
    scale = np.einsum("...d,...d->...", x, x)[..., None]
    scale /= x.shape[-1]
    scale -= mean * mean
    np.maximum(scale, 0.0, out=scale)
    scale += eps
    np.sqrt(scale, out=scale)
    np.subtract(x, mean, out=out)
    out /= scale
    out *= gamma
    out += beta
    return out


def fused_gelu(
    x: np.ndarray, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact GELU ``x * Phi(x)`` in place on ``x``.

    Matches the graph path's formula (``Phi`` via the error function,
    argument divided by sqrt(2)) so float64 parity is bitwise. ``scratch``
    holds the cdf and must be shaped/typed like ``x``.
    """
    if scratch is None:
        scratch = np.empty_like(x)
    np.divide(x, np.sqrt(2.0), out=scratch)
    _erf(scratch, out=scratch)
    scratch += 1.0
    scratch *= 0.5
    x *= scratch
    return x


def fused_softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax along the last axis, entirely in place."""
    peak = scores.max(axis=-1, keepdims=True)
    np.subtract(scores, peak, out=scores)
    np.exp(scores, out=scores)
    total = scores.sum(axis=-1, keepdims=True)
    scores /= total
    return scores


# -- the baked plan ----------------------------------------------------------


class _LayerPlan:
    """One encoder layer's weights, flattened for the fused forward."""

    __slots__ = (
        "norm1_gamma", "norm1_beta", "norm1_eps",
        "qkv_weight", "qkv_bias",
        "out_weight", "out_bias",
        "norm2_gamma", "norm2_beta", "norm2_eps",
        "ffn_in_weight", "ffn_in_bias",
        "ffn_out_weight", "ffn_out_bias",
    )


class InferenceSession:
    """An immutable fused-forward snapshot of a :class:`TransformerEncoder`.

    Baking walks the module tree once, validates that every module is of
    a type the flat plan can represent, and casts all weights to the
    session ``dtype`` (the precision policy's compute dtype). The
    session then answers :meth:`forward` / :meth:`encode_cls` with pure
    numpy — no autograd objects anywhere (lint-enforced).

    Weight staleness: optimizers and ``load_weights`` replace parameter
    arrays rather than mutating them, so :meth:`stale` is a set of cheap
    identity checks against the arrays seen at bake time. A stale
    session still computes (with its old weights); owners are expected
    to rebuild when :meth:`stale` reports True.
    """

    def __init__(self, model: TransformerEncoder, dtype=None):
        for name, module in model.named_modules():
            if not isinstance(module, _BAKEABLE):
                raise TypeError(
                    f"InferenceSession cannot bake module "
                    f"{name or '<root>'!r} of type {type(module).__name__}"
                )
        self.dtype = np.dtype(dtype) if dtype is not None else TRAINING_DTYPE
        self.dim = model.dim
        self.max_len = model.max_len
        self.pad_id = model.pad_id
        self.n_heads = model.layers[0].attention.n_heads if model.layers else 1
        self.head_dim = self.dim // self.n_heads
        self.ffn_dim = (
            model.layers[0].ffn_in.weight.data.shape[1] if model.layers else 0
        )
        self._mask_bias = mask_bias_value(self.dtype)
        self._sources = tuple(
            (tensor, tensor.data) for _, tensor in model.named_parameters()
        )
        cast = self._cast
        self.token_table = cast(model.token_embedding.weight.data)
        self.position_table = cast(model.position_embedding.weight.data)
        self.final_gamma = cast(model.final_norm.gamma.data)
        self.final_beta = cast(model.final_norm.beta.data)
        self.final_eps = model.final_norm.eps
        self.layers: Tuple[_LayerPlan, ...] = tuple(
            self._bake_layer(layer) for layer in model.layers
        )

    def _cast(self, array: np.ndarray) -> np.ndarray:
        # no copy when the dtype already matches (float64 sessions share
        # the live arrays; safe because weight updates reassign, never
        # mutate, and reassignment flips stale())
        return np.asarray(array, dtype=self.dtype)

    def _linear(self, linear: Linear) -> Tuple[np.ndarray, np.ndarray]:
        weight = self._cast(linear.weight.data)
        if linear.bias is not None:
            return weight, self._cast(linear.bias.data)
        return weight, np.zeros(weight.shape[1], dtype=self.dtype)

    def _bake_layer(self, layer: TransformerEncoderLayer) -> _LayerPlan:
        attention = layer.attention
        if attention.n_heads != self.n_heads:
            raise ValueError("layers disagree on head count; cannot bake")
        plan = _LayerPlan()
        plan.norm1_gamma = self._cast(layer.norm1.gamma.data)
        plan.norm1_beta = self._cast(layer.norm1.beta.data)
        plan.norm1_eps = layer.norm1.eps
        query_w, query_b = self._linear(attention.query)
        key_w, key_b = self._linear(attention.key)
        value_w, value_b = self._linear(attention.value)
        plan.qkv_weight = np.concatenate([query_w, key_w, value_w], axis=1)
        plan.qkv_bias = np.concatenate([query_b, key_b, value_b])
        plan.out_weight, plan.out_bias = self._linear(attention.output)
        plan.norm2_gamma = self._cast(layer.norm2.gamma.data)
        plan.norm2_beta = self._cast(layer.norm2.beta.data)
        plan.norm2_eps = layer.norm2.eps
        plan.ffn_in_weight, plan.ffn_in_bias = self._linear(layer.ffn_in)
        plan.ffn_out_weight, plan.ffn_out_bias = self._linear(layer.ffn_out)
        return plan

    def stale(self) -> bool:
        """True when any source parameter's array has been replaced."""
        return any(
            tensor.data is not baked for tensor, baked in self._sources
        )

    # -- the fused forward -------------------------------------------------
    def forward(
        self, ids: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Hidden states (B, S, D) in the session dtype, eval-mode math."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        batch, seq = ids.shape
        if seq > self.max_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_len {self.max_len}"
            )
        if mask is None:
            mask = ids != self.pad_id
        dtype = self.dtype
        dim, heads, head_dim = self.dim, self.n_heads, self.head_dim

        x = self.token_table[ids]
        x += self.position_table[:seq]
        # the padding bias: once per batch, shared across layers/heads
        inverted = 1.0 - np.asarray(mask, dtype=dtype)
        bias = (inverted * self._mask_bias)[:, None, None, :]

        # scratch allocated per call (thread-safe), reused across layers
        normed = np.empty_like(x)
        qkv = np.empty((batch, seq, 3 * dim), dtype=dtype)
        scores = np.empty((batch, heads, seq, seq), dtype=dtype)
        context = np.empty((batch, heads, seq, head_dim), dtype=dtype)
        merged = np.empty((batch, seq, dim), dtype=dtype)
        proj = np.empty((batch, seq, dim), dtype=dtype)
        ffn = np.empty((batch, seq, self.ffn_dim), dtype=dtype)
        cdf = np.empty_like(ffn)
        score_scale = 1.0 / np.sqrt(head_dim)

        for plan in self.layers:
            # attention block: x += W_o(softmax(qk^T/sqrt(d) + bias) v)
            fused_layer_norm(
                x, plan.norm1_gamma, plan.norm1_beta, plan.norm1_eps,
                out=normed,
            )
            np.matmul(normed, plan.qkv_weight, out=qkv)
            qkv += plan.qkv_bias
            heads_view = qkv.reshape(batch, seq, 3, heads, head_dim)
            q = heads_view[:, :, 0].transpose(0, 2, 1, 3)
            k = heads_view[:, :, 1].transpose(0, 2, 1, 3)
            v = heads_view[:, :, 2].transpose(0, 2, 1, 3)
            np.matmul(q, k.swapaxes(-1, -2), out=scores)
            scores *= score_scale
            scores += bias
            fused_softmax(scores)
            np.matmul(scores, v, out=context)
            np.copyto(
                merged.reshape(batch, seq, heads, head_dim),
                context.transpose(0, 2, 1, 3),
            )
            np.matmul(merged, plan.out_weight, out=proj)
            proj += plan.out_bias
            x += proj

            # feed-forward block: x += W_2 gelu(W_1 norm2(x))
            fused_layer_norm(
                x, plan.norm2_gamma, plan.norm2_beta, plan.norm2_eps,
                out=normed,
            )
            np.matmul(normed, plan.ffn_in_weight, out=ffn)
            ffn += plan.ffn_in_bias
            fused_gelu(ffn, cdf)
            np.matmul(ffn, plan.ffn_out_weight, out=proj)
            proj += plan.ffn_out_bias
            x += proj

        return fused_layer_norm(
            x, self.final_gamma, self.final_beta, self.final_eps, out=normed
        )

    def encode_cls(
        self, ids: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Sentence embeddings: the hidden state at position 0 ([CLS])."""
        return np.ascontiguousarray(self.forward(ids, mask=mask)[:, 0, :])
