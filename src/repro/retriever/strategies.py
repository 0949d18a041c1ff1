"""Score-calculation strategies (paper Sec. III-B and Table IV).

Given the cosine scores of a question against one document's triple facts:

* ``one_fact`` — Eq. 2: the maximum ("One Fact" hypothesis),
* ``top_k`` — Eq. 6: the mean of the k best,
* ``mean`` — Eq. 7: the mean over all (simulating full-text compression).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

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


class Segments(NamedTuple):
    """Segment layout of a flat score axis, derived once per shard."""

    lengths: np.ndarray  # (n_segments,) rows per segment
    nonempty: Union[slice, np.ndarray]  # index of segments with rows
    starts: np.ndarray  # (n_nonempty,) their first flat position


def segment_layout(offsets: np.ndarray, total: int) -> Segments:
    """Layout for segment starts ``offsets`` (non-decreasing; equal
    consecutive starts denote an empty segment) over ``total`` flat
    elements — the last segment runs to ``total``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(np.concatenate([offsets, [total]]))
    has_rows = lengths > 0
    # the usual layout has no empty segment: scatter through a slice
    nonempty = slice(None) if has_rows.all() else np.flatnonzero(has_rows)
    return Segments(lengths, nonempty, offsets[nonempty])


def aggregate_segments(
    scores: np.ndarray, segments: Segments, strategy: "ScoreStrategy"
) -> np.ndarray:
    """Apply ``strategy`` to every segment of every row of ``scores``.

    ``scores`` is a ``(queries, flat triples)`` block (a 1-D vector is a
    block of one row, and comes back 1-D) laid out as ``segments``
    describes. Returns the ``(queries, segments)`` document scores in
    ``ACCUM_DTYPE``: ``aggregated[q, d]`` is the strategy's score of
    ``scores[q, start_d:stop_d]``, ``EMPTY_SCORE`` for an empty segment —
    bitwise the contract of the scalar reference in ``tests/reference.py``.

    One ``reduceat`` along the flat axis per block, over the non-empty
    starts only: consecutive non-empty starts bracket exactly one
    document's triples (empty segments contribute no elements), which
    sidesteps reduceat's surprising repeated-index rule.
    """
    scores = np.asarray(scores)
    block = np.atleast_2d(scores)
    lengths, nonempty, starts = segments
    if strategy.name not in (ONE_FACT, MEAN, TOP_K):
        raise ValueError(f"unknown strategy {strategy.name!r}")
    shape = scores.shape[:-1] + lengths.shape
    aggregated = np.full(
        (block.shape[0], lengths.shape[0]), EMPTY_SCORE, dtype=ACCUM_DTYPE
    )
    if not block.size:  # no query row, or no triple row to reduce
        return aggregated.reshape(shape)
    if strategy.name == ONE_FACT:
        # a maximum is the same element in any float width: reduce in the
        # store dtype, widen only the (queries, documents) result
        aggregated[:, nonempty] = np.maximum.reduceat(block, starts, axis=1)
    else:
        # sums accumulate in float64 regardless of the store dtype: every
        # float32 is exactly representable, so they stay bitwise stable
        block = block.astype(ACCUM_DTYPE, copy=False)
        counts = lengths[nonempty]
        if strategy.name == TOP_K:
            block = _top_k_only(block, lengths, strategy.k)
            counts = np.minimum(counts, strategy.k)
        aggregated[:, nonempty] = (
            np.add.reduceat(block, starts, axis=1) / counts
        )
    return aggregated.reshape(shape)


def _top_k_only(block: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """``block`` with each segment sorted descending and every element
    past rank ``k`` zeroed: one lexsort per row (segments stay
    contiguous), so a segment sum is the sum of its k best."""
    seg_ids = np.repeat(np.arange(lengths.shape[0]), lengths)
    rank_in_segment = np.arange(block.shape[1]) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return np.stack(
        [
            np.where(
                rank_in_segment < k, row[np.lexsort((-row, seg_ids))], 0.0
            )
            for row in block
        ]
    )


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
