"""The single source of dtype policy for every embedding matrix.

Every layer that touches the stacked triple matrix — the nn engine, the
encoder, the embedding store, the shard plans, the retriever and the
serving front door — used to spell its own ``np.float64``. At the
ROADMAP's millions-of-docs scale that matrix dominates both RAM and
matmul bandwidth, so the dtype is policy, not an implementation detail,
and this module is the only place it may be spelled (enforced by the
``hardcoded-dtype`` lint rule):

* :class:`Precision` — the end-to-end config threaded through
  ``retrieve/retrieve_many/retrieve_batch/retrieve_paths(_batch)``, the
  serve batch keys and the cache keys. Three modes:

  - ``float64`` — the original exact mode, kept for parity testing;
  - ``float32`` — the default: top-k identical to float64 on the test
    worlds (cosine scores of unit vectors differ by ~1e-7, far below
    any meaningful score gap) at half the memory and bandwidth;
  - ``int8-rescore`` — symmetric per-row int8 quantization (one float32
    scale per row, 8x smaller than float64) scores *coarsely*, prunes
    to the top ``rescore_width`` documents per query, then rescores the
    survivors exactly against the float rows. Recall@k is monotone in
    ``rescore_width`` because survivors form a prefix of the coarse
    total order.

* quantization math — :func:`quantize_rows` / :func:`dequantize_rows` /
  :func:`coarse_scores`. The half-level scheme ``q = clip(round(x *
  127.5 / scale), -127, 127)`` bounds the per-element round-trip error
  by ``scale / 255`` (both interior rounding and the clipped boundary
  land within half a level), the bound the property tests pin.

* named dtype constants — ``TRAINING_DTYPE`` (the autograd engine stays
  float64: finite-difference gradient checks need the headroom),
  ``ACCUM_DTYPE`` (score aggregation accumulates in float64 so segment
  reductions stay bitwise stable across store dtypes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

FLOAT64 = "float64"
FLOAT32 = "float32"
INT8_RESCORE = "int8-rescore"
MODES = (FLOAT64, FLOAT32, INT8_RESCORE)

#: Store/encoder default: float32 halves memory and matmul bandwidth
#: while keeping top-k identical to float64 on the parity worlds.
DEFAULT_MODE = FLOAT32

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)

#: Float dtypes an embedding store may persist, by canonical name.
STORE_DTYPES = {FLOAT64: F64, FLOAT32: F32}

#: Data-file suffix per store dtype (``embeddings-<digest>.<suffix>``).
FILE_SUFFIXES = {FLOAT64: "f64", FLOAT32: "f32"}
SUFFIX_DTYPES = {s: STORE_DTYPES[n] for n, s in FILE_SUFFIXES.items()}

#: The autograd engine's dtype. Training math stays float64: the
#: finite-difference gradient property tests need ~1e-7 agreement that
#: float32 arithmetic cannot deliver. Inference output is cast to the
#: policy dtype at the encoder boundary instead.
TRAINING_DTYPE = F64

#: Accumulator dtype of score aggregation (segment reductions, merges).
#: Aggregating float32 scores in float64 is exact (every float32 is a
#: float64), so sharded and unsharded paths stay bitwise identical
#: regardless of the store dtype.
ACCUM_DTYPE = F64

#: Half-level symmetric quantization: values map to ``[-127.5, 127.5]``
#: before rounding, so both interior rounding error and the clipped
#: boundary (|q| capped at 127) stay within half a level = scale/255.
_Q_LEVELS = 127.5
_Q_MAX = 127

#: Rows per chunk of the int8 coarse matmul: the float32 temporary
#: (chunk x dim) stays cache-resident while DRAM traffic is ~1 byte per
#: matrix element instead of 8 for float64.
COARSE_CHUNK_ROWS = 8192


class PrecisionError(ValueError):
    """An invalid or inconsistent precision configuration."""


def mask_bias_value(dtype) -> float:
    """Additive pre-softmax bias that zeroes padded attention positions.

    Scaled to the compute dtype via ``np.finfo`` (half the largest finite
    magnitude) instead of a hardcoded ``-1e9``: large enough that
    ``exp(bias - row_max)`` underflows to exactly ``0.0`` in the given
    dtype, small enough that adding finite scores never overflows to
    ``-inf``. Because masked weights underflow to exact zeros either
    way, float64 outputs are bitwise independent of which constant is
    used — the graph and fused paths may each take their own dtype.
    """
    return -float(np.finfo(np.dtype(dtype)).max) / 2.0


@dataclass(frozen=True)
class Precision:
    """One end-to-end precision policy.

    ``mode`` selects the scoring path; ``rescore_width`` is the number
    of coarse-ranked documents per query that survive into the exact
    rescore (int8-rescore mode only; ignored by the float modes).
    """

    mode: str = DEFAULT_MODE
    rescore_width: int = 64

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PrecisionError(
                f"unknown precision mode {self.mode!r} (expected {MODES})"
            )
        if self.rescore_width < 1:
            raise PrecisionError("rescore_width must be >= 1")

    @property
    def dtype(self) -> np.dtype:
        """The float dtype of the stacked matrix under this policy.

        int8-rescore keeps its exact-rescore rows in float32: the coarse
        int8 pass already bounds the error, and the rescore only needs
        to reproduce the float32 ranking.
        """
        return F64 if self.mode == FLOAT64 else F32

    @property
    def quantized(self) -> bool:
        return self.mode == INT8_RESCORE

    def key(self) -> str:
        """Hashable identity for cache/batch keys.

        Two requests may share a cached answer only when they are the
        same pure function of the query — which for int8-rescore
        includes the rescore width (a wider rescore can change top-k).
        """
        if self.quantized:
            return f"{self.mode}:{self.rescore_width}"
        return self.mode


#: Anything callers may pass where a precision is expected.
PrecisionLike = Union[None, str, Precision]


def resolve(precision: PrecisionLike) -> Precision:
    """Coerce ``None`` / a string / a :class:`Precision` to policy.

    Strings may be a bare mode (``"float32"``) or a full
    :meth:`Precision.key` (``"int8-rescore:64"``) — the form a query
    frame carries on the wire.
    """
    if precision is None:
        return Precision()
    if isinstance(precision, Precision):
        return precision
    return parse_key(str(precision))


def parse_key(key: str) -> Precision:
    """Inverse of :meth:`Precision.key` (``mode`` or ``mode:width``)."""
    mode, _, width = key.partition(":")
    if width:
        try:
            rescore_width = int(width)
        except ValueError:
            raise PrecisionError(
                f"malformed precision key {key!r}"
            ) from None
        return Precision(mode=mode, rescore_width=rescore_width)
    return Precision(mode=mode)


def dtype_named(name: str) -> np.dtype:
    """The store dtype for a manifest ``dtype`` field; raises on unknown."""
    try:
        return STORE_DTYPES[name]
    except KeyError:
        raise PrecisionError(
            f"unsupported store dtype {name!r} "
            f"(expected {sorted(STORE_DTYPES)})"
        ) from None


def dtype_name(dtype) -> str:
    """Canonical manifest name of a store dtype; raises on unknown."""
    name = np.dtype(dtype).name
    if name not in STORE_DTYPES:
        raise PrecisionError(
            f"unsupported store dtype {name!r} "
            f"(expected {sorted(STORE_DTYPES)})"
        )
    return name


def file_suffix(dtype) -> str:
    """Data-file suffix (``f32``/``f64``) of a store dtype."""
    return FILE_SUFFIXES[dtype_name(dtype)]


def cast_matrix(matrix: np.ndarray, dtype) -> np.ndarray:
    """``matrix`` as ``dtype`` (no copy when it already matches)."""
    return np.asarray(matrix, dtype=dtype)


def ensure_float(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` unchanged when already float, else cast to the
    accumulator dtype — dtype-preserving entry for scoring paths."""
    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.floating):
        matrix = matrix.astype(ACCUM_DTYPE)
    return matrix


# -- int8 symmetric per-row quantization ------------------------------------


def quantize_rows(matrix: np.ndarray):
    """Quantize each row to int8 with one float32 scale per row.

    ``scale[i] = max(|row_i|)`` and ``q = clip(round(x * 127.5 / scale),
    -127, 127)``, so dequantization ``q * scale / 127.5`` reproduces
    every element within ``scale / 255`` (the half-level bound). Zero
    rows get scale 0 and quantize to all-zero. Returns ``(q, scales)``
    with ``q`` int8 of the input shape and ``scales`` float32 ``(rows,)``.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    rows = matrix.shape[0]
    scales = np.abs(matrix).max(axis=1).astype(F32) if rows else np.zeros(
        0, dtype=F32
    )
    # the factor is formed in float64: a subnormal float32 scale would
    # overflow 127.5/scale in float32
    safe = np.where(scales > 0, scales, 1).astype(F64)
    scaled = matrix * (_Q_LEVELS / safe)[:, None]
    q = np.clip(np.round(scaled), -_Q_MAX, _Q_MAX).astype(np.int8)
    return q, scales


def dequantize_rows(  # lint: ignore[dead-symbol] -- tests' reference inverse
    q: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Float32 reconstruction of :func:`quantize_rows` output."""
    q = np.atleast_2d(np.asarray(q))
    factors = (np.asarray(scales, dtype=F32) / _Q_LEVELS).astype(F32)
    return q.astype(F32) * factors[:, None]


def coarse_scores(
    q_matrix: np.ndarray,
    scales: np.ndarray,
    queries: np.ndarray,
    chunk_rows: int = COARSE_CHUNK_ROWS,
) -> np.ndarray:
    """Dot products of dequantized rows against ``queries`` (float32).

    Equivalent to ``dequantize_rows(q, scales) @ queries.T`` but chunked
    so only ``chunk_rows x dim`` of float32 temporaries exist at a time:
    the int8 matrix is what travels from DRAM. Returns ``(rows,
    n_queries)`` float32 coarse scores.
    """
    queries = np.atleast_2d(cast_matrix(queries, F32))
    rows = q_matrix.shape[0]
    out = np.empty((rows, queries.shape[0]), dtype=F32)
    for start in range(0, rows, chunk_rows):
        stop = min(start + chunk_rows, rows)
        chunk = q_matrix[start:stop].astype(F32)
        out[start:stop] = chunk @ queries.T
    factors = (np.asarray(scales, dtype=F32) / _Q_LEVELS).astype(F32)
    out *= factors[:, None]
    return out
