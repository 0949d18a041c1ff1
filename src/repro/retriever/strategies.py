"""Score-calculation strategies (paper Sec. III-B and Table IV).

Given the cosine scores of a question against one document's triple facts:

* ``one_fact`` — Eq. 2: the maximum ("One Fact" hypothesis),
* ``top_k`` — Eq. 6: the mean of the k best,
* ``mean`` — Eq. 7: the mean over all (simulating full-text compression).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.precision import ACCUM_DTYPE

ONE_FACT = "one_fact"
TOP_K = "top_k"
MEAN = "mean"


@dataclass(frozen=True)
class ScoreStrategy:
    """A named strategy with its parameter (k for top-k)."""

    name: str = ONE_FACT
    k: int = 2


EMPTY_SCORE = -1.0  # cosine lower bound assigned to triple-less documents


def segment_lengths(offsets: np.ndarray, total: int) -> np.ndarray:
    """Per-segment lengths for segment starts ``offsets`` over ``total``
    flat elements (the last segment runs to ``total``)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    return np.diff(np.concatenate([offsets, [total]]))


def aggregate_segments(
    scores: np.ndarray, offsets: np.ndarray, strategy: "ScoreStrategy"
) -> tuple:
    """Apply ``strategy`` to every contiguous segment of ``scores`` at once.

    ``scores`` is the flat per-triple score vector of *all* documents and
    ``offsets`` the start index of each document's segment (non-decreasing;
    equal consecutive starts denote an empty document). Returns
    ``(aggregated, matched)`` where ``aggregated[d]`` is the strategy's
    score of ``scores[start_d:stop_d]`` and ``matched[d]`` the
    segment-local argmax (the explaining triple), with ``EMPTY_SCORE`` / -1
    for empty segments — bitwise the contract of the scalar reference in
    ``tests/reference.py``.

    Built on ``np.maximum.reduceat`` / ``np.add.reduceat``: one ufunc pass
    per corpus instead of one Python iteration per document.
    """
    # scores accumulate in float64 regardless of the store dtype: every
    # float32 is exactly representable, so reductions stay bitwise stable
    scores = np.asarray(scores, dtype=ACCUM_DTYPE)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_segments = offsets.shape[0]
    aggregated = np.full(n_segments, EMPTY_SCORE, dtype=ACCUM_DTYPE)
    matched = np.full(n_segments, -1, dtype=np.int64)
    if n_segments == 0:
        return aggregated, matched
    lengths = segment_lengths(offsets, scores.shape[0])
    nonempty = lengths > 0
    if not nonempty.any():
        return aggregated, matched
    # reduceat over the non-empty starts only: consecutive non-empty starts
    # bracket exactly one document's triples (empty segments contribute no
    # elements), which sidesteps reduceat's surprising repeated-index rule.
    ne_starts = offsets[nonempty]
    maxes = np.maximum.reduceat(scores, ne_starts)
    # segment-local argmax = first flat position attaining the segment max
    seg_max_flat = np.repeat(maxes, lengths[nonempty])
    flat_pos = np.arange(scores.shape[0], dtype=np.int64)
    hit_pos = np.where(scores == seg_max_flat, flat_pos, scores.shape[0])
    first_hit = np.minimum.reduceat(hit_pos, ne_starts)
    matched[nonempty] = first_hit - ne_starts
    if strategy.name == ONE_FACT:
        aggregated[nonempty] = maxes
    elif strategy.name == MEAN:
        sums = np.add.reduceat(scores, ne_starts)
        aggregated[nonempty] = sums / lengths[nonempty]
    elif strategy.name == TOP_K:
        # sort each segment descending in one lexsort (segments stay
        # contiguous), mask everything past rank k, then segment-sum
        seg_ids = np.repeat(np.arange(n_segments), lengths)
        order = np.lexsort((-scores, seg_ids))
        ranked = scores[order]
        rank_in_segment = flat_pos - np.repeat(offsets, lengths)
        kept = np.where(rank_in_segment < strategy.k, ranked, 0.0)
        sums = np.add.reduceat(kept, ne_starts)
        aggregated[nonempty] = sums / np.minimum(
            lengths[nonempty], strategy.k
        )
    else:
        raise ValueError(f"unknown strategy {strategy.name!r}")
    return aggregated, matched


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-L2-normalized copy; zero rows stay zero.

    The one normalization helper cosine-score matmuls must route
    through: dividing by ``max(norm, tiny)`` keeps zero rows at exactly
    zero without branching.

    Dtype-preserving: a float32 matrix normalizes in float32 (the
    precision policy decides the dtype upstream, at the encoder/store
    boundary); non-float inputs are promoted to the accumulator dtype.
    """
    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.floating):
        matrix = matrix.astype(ACCUM_DTYPE)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(matrix.dtype).tiny, out=norms)
    return matrix / norms


def l2_normalize_vec(vec: np.ndarray) -> np.ndarray:
    """L2-normalized copy of one vector; the zero vector stays zero."""
    vec = np.asarray(vec)
    if not np.issubdtype(vec.dtype, np.floating):
        vec = vec.astype(ACCUM_DTYPE)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return vec.copy()
    return vec / norm
