"""The scoring plan: per-shard top-k with an exact global merge.

A :class:`ShardPlan` is the one search implementation. It splits one
stacked, L2-normalized triple matrix into N shards (each document's
triples live wholly in one shard) plus a coarse-quantization layer: one
unit centroid per shard. A query scores the centroids first and prunes
to the ``nprobe`` closest shards before any triple matmul runs — the IVF
structure that decouples query cost from total corpus size. Exact
retrieval is the degenerate plan: one ``range`` shard that is a
zero-copy view of the whole matrix, probed in full, so no centroid is
ever scored.

The scan is block-wise. The plan keeps ONE shard-major matrix (the
stacked matrix itself under ``range``, one gather of it under
``centroid``) and every ``Shard.matrix`` is a view of it; a group of
queries that probe the same shard costs one product and one segment
reduction over the ``(queries, shard rows)`` score block, and a group
that probes every shard is one group over the whole matrix whatever the
shard count. The explaining triple is not part of the scan: it is read
off the flat scores of the k documents a ranking returns.

Exactness contract: per-document scores are plain dot products against
the same normalized rows whichever shard holds them, and the global
merge orders by ``(score desc, doc id asc)`` — a total order. With
``nprobe = n_shards`` (no pruning) retrieval is therefore
*byte-identical* at every shard count; with ``nprobe < n_shards`` it
trades recall for a proportional cut in matmul work. The parity matrix
in ``tests/test_shard.py`` pins the first property against a
brute-force oracle, the recall-monotonicity property tests the second.

A plan built with ``quantize=True`` additionally carries a symmetric
per-row int8 copy of every shard matrix (one float32 scale per row —
8x smaller than float64, what makes millions of docs fit in RAM).
:meth:`ShardPlan.search_quantized` is the same plan with a coarse
stage: the same probe-and-scan loop scores the int8 copy, the top
``rescore_width`` documents per query under the same ``(score desc,
doc id asc)`` total order are gathered into one ad-hoc shard, and that
shard's float rows are scored exactly. Because the survivor set is a
prefix of the coarse total order, widening ``rescore_width`` can only
add documents — recall@k is monotone in the rescore width, and equals
exact recall once every true top-k document survives the coarse cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.precision import (
    ACCUM_DTYPE,
    coarse_scores,
    ensure_float,
    quantize_rows,
)
from repro.retriever.strategies import (
    ScoreStrategy,
    Segments,
    aggregate_segments,
    segment_layout,
)
from repro.shard.assignment import (
    MODES,
    assign_documents,
    segment_means,
)
from repro.shard.merge import topk_doc_order


@dataclass
class Shard:
    """One shard: a doc subset, their triple rows, and a coarse centroid."""

    doc_ids: np.ndarray  # (n_docs,) int64, ascending
    offsets: np.ndarray  # (n_docs,) int64 shard-local segment starts
    matrix: np.ndarray  # (n_rows, dim) L2-normalized triple rows
    centroid: np.ndarray  # (dim,) unit centroid (zero when empty)
    q_matrix: Optional[np.ndarray] = None  # (n_rows, dim) int8 rows
    q_scales: Optional[np.ndarray] = None  # (n_rows,) float32 row scales
    segments: Segments = field(init=False, repr=False)  # layout of a scan

    def __post_init__(self) -> None:
        self.segments = segment_layout(self.offsets, self.n_rows)

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def quantized(self) -> bool:
        return self.q_matrix is not None

    def __len__(self) -> int:
        return int(self.doc_ids.shape[0])


#: One scored shard of one query: the shard, the query's flat per-triple
#: scores over its rows, and its per-document scores.
Part = Tuple[Shard, np.ndarray, np.ndarray]


class QueryShardScores:
    """One query's scored shards, mergeable into a global ranking.

    Built from the query's :data:`Part` rows in probe order, laid end to
    end. The explaining triple is found for the winners, not the corpus:
    :meth:`explain` reads it (and the flat per-triple scores) off the
    ranked documents' own slices without re-scoring. A quantized search
    returns the one-part case: the rescored survivors.
    """

    __slots__ = ("doc_ids", "scores", "_bounds", "_parts")

    def __init__(self, parts: Sequence[Part]) -> None:
        shards = [shard for shard, _, _ in parts]
        self.doc_ids = _join([shard.doc_ids for shard in shards], np.int64)
        self.scores = _join([scores for _, _, scores in parts], ACCUM_DTYPE)
        self._bounds = np.cumsum([0] + [len(shard) for shard in shards])
        self._parts = parts

    @property
    def n_triples(self) -> int:
        """Triple rows this query was scored against."""
        return sum(int(flat.shape[0]) for _, flat, _ in self._parts)

    def _segments(
        self, positions: Sequence[int]
    ) -> Iterator[Tuple[Shard, np.ndarray, int, int]]:
        """(shard, flat scores, row start, row stop) per merged position."""
        positions = np.asarray(positions, dtype=np.int64)
        parts = np.searchsorted(self._bounds, positions, side="right") - 1
        local_positions = positions - self._bounds[parts]
        for part, local in zip(parts.tolist(), local_positions.tolist()):
            shard, flat, _ = self._parts[part]
            start = shard.offsets[local]
            yield shard, flat, start, start + shard.segments.lengths[local]

    def explain(
        self, positions: Sequence[int]
    ) -> List[Tuple[int, np.ndarray]]:
        """(explaining triple, flat triple scores) per merged position.

        The triple is the first argmax of the document's own slice
        (-1 for a document without triples); the scores are a view into
        the scan's block — copy what outlives the request.
        """
        explained = []
        for _, flat, start, stop in self._segments(positions):
            cosines = flat[start:stop]
            explained.append(
                (int(cosines.argmax()) if cosines.size else -1, cosines)
            )
        return explained

    def rows(self, positions: Sequence[int]) -> List[np.ndarray]:
        """Float matrix rows of the documents at merged ``positions``."""
        return [
            shard.matrix[start:stop]
            for shard, _, start, stop in self._segments(positions)
        ]


def _join(arrays: List[np.ndarray], dtype) -> np.ndarray:
    """Concatenation that is zero-copy for the one-shard plan."""
    if len(arrays) == 1:
        return arrays[0]
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(arrays)


class ShardPlan:
    """N shards over one shard-major matrix + the centroid pruning layer.

    ``whole`` is the plan as one shard: every document, shard by shard,
    over the one matrix the plan holds. ``shards`` are views of it —
    documents ``doc_bounds[i]:doc_bounds[i + 1]`` — so a query group that
    probes every shard scores ``whole`` with one product and one segment
    reduction, whatever the shard count.
    """

    def __init__(
        self,
        whole: Shard,
        doc_bounds: Sequence[int],
        mode: str,
    ):
        self.whole = whole
        self.mode = mode
        self.quantized = False
        self.total_docs = len(whole)
        self.total_rows = whole.n_rows
        row_bounds = np.append(whole.offsets, whole.n_rows)[doc_bounds]
        self.shards = [
            Shard(
                doc_ids=whole.doc_ids[docs],
                offsets=whole.offsets[docs] - rows.start,
                matrix=whole.matrix[rows],
                centroid=_unit_mean(whole.matrix[rows]),
            )
            for docs, rows in zip(_slices(doc_bounds), _slices(row_bounds))
        ]
        self.centroids = np.stack([s.centroid for s in self.shards])

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- construction ----------------------------------------------------
    @classmethod
    def build(
        cls,
        normed_matrix: np.ndarray,
        doc_ids: Sequence[int],
        offsets: Sequence[int],
        n_shards: int,
        mode: str = "range",
        quantize: bool = False,
    ) -> "ShardPlan":
        """Split a stacked normalized matrix into a scoring plan.

        ``doc_ids``/``offsets`` describe the segment layout exactly as
        :class:`~repro.ingest.embedding_store.EmbeddingStore` does. The
        document-to-shard assignment is a pure function of the matrix
        (doc-id ranges, or seeded k-means), so every process that holds
        the same store derives the same plan. ``quantize`` additionally
        derives the per-shard int8 copies that :meth:`search_quantized`
        scores.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if mode not in MODES:
            raise ValueError(
                f"unknown shard mode {mode!r} (expected {MODES})"
            )
        # dtype-preserving: the precision policy chose the matrix dtype
        # upstream; sharding must not silently widen a float32 corpus
        normed_matrix = ensure_float(normed_matrix)
        doc_id_arr = np.asarray(list(doc_ids), dtype=np.int64)
        offset_arr = np.asarray(list(offsets), dtype=np.int64)
        n_docs = doc_id_arr.shape[0]
        total = normed_matrix.shape[0]
        if mode == "centroid":
            labels = assign_documents(
                mode,
                n_docs,
                n_shards,
                doc_vectors=segment_means(normed_matrix, offset_arr),
            )
        else:
            labels = assign_documents(mode, n_docs, n_shards)
        # shard-major document order (stable: ascending doc position
        # inside a shard) and the rows of the matrix in that order
        order = np.argsort(labels, kind="stable")
        lengths = np.diff(np.append(offset_arr, total))[order]
        starts = np.cumsum(lengths) - lengths
        n_rows = int(lengths.sum())
        if _labels_are_contiguous(labels):
            # range layout: the documents' rows already run shard by
            # shard to the end of the stacked matrix — a zero-copy view
            matrix = normed_matrix[total - n_rows :]
        else:
            matrix = normed_matrix[
                np.repeat(offset_arr[order] - starts, lengths)
                + np.arange(n_rows)
            ]
        plan = cls(
            whole=Shard(
                doc_ids=doc_id_arr[order],
                offsets=starts,
                matrix=matrix,
                centroid=np.zeros(0, dtype=matrix.dtype),
            ),
            doc_bounds=np.searchsorted(
                labels[order], np.arange(n_shards + 1)
            ),
            mode=mode,
        )
        if quantize:
            plan.quantize()
        return plan

    def quantize(self) -> "ShardPlan":
        """Derive the int8 copy of every shard matrix (idempotent).

        Quantization is deterministic — re-quantizing the same float rows
        yields byte-identical int8/scale arrays — so every plan built
        over the same store scores identically.
        """
        for shard in self.shards:
            if shard.q_matrix is None:
                shard.q_matrix, shard.q_scales = quantize_rows(shard.matrix)
        self.quantized = True
        return self

    # -- query path ------------------------------------------------------
    def probe(
        self, queries_normed: np.ndarray, nprobe: Optional[int] = None
    ) -> np.ndarray:
        """``(queries, nprobe)`` shard ids to score, closest centroid first.

        ``nprobe`` of None (or >= ``n_shards``) probes everything — the
        no-pruning, provably exact configuration, which scores no
        centroid. Centroid ties break toward the lower shard id (one
        stable sort of the block) so probing is deterministic.
        """
        n_shards = self.n_shards
        if nprobe is not None and nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        queries_normed = np.atleast_2d(queries_normed)
        if nprobe is None or nprobe >= n_shards:
            return np.tile(
                np.arange(n_shards, dtype=np.int64),
                (queries_normed.shape[0], 1),
            )
        centroid_scores = queries_normed @ self.centroids.T
        order = np.argsort(-centroid_scores, axis=1, kind="stable")
        return order[:, : int(nprobe)].astype(np.int64, copy=False)

    def _scan(
        self,
        queries_normed: np.ndarray,
        strategy: ScoreStrategy,
        nprobe: Optional[int],
        coarse: bool,
    ) -> List[QueryShardScores]:
        """Probe, group queries by shard, score each group (shard-major).

        One product and one segment reduction per (shard,
        queries-probing-it) group, so a batch pays each shard's matrix
        at most once: the float rows, or with ``coarse`` the int8 copy
        chunk-wise (~1 byte of DRAM traffic per matrix element). A float
        group that probes every shard is one group over ``whole`` (the
        int8 copies are per shard, so a coarse scan always goes by shard).
        """
        n_queries = queries_normed.shape[0]
        probed = self.probe(queries_normed, nprobe)
        if not coarse and probed.shape[1] == self.n_shards:
            groups = [(self.whole, np.arange(n_queries))]
        else:
            groups = [
                (self.shards[shard_id], np.nonzero(probed == shard_id)[0])
                for shard_id in np.unique(probed).tolist()
            ]
        parts: List[List[Part]] = [[] for _ in range(n_queries)]
        for shard, members in groups:
            if len(shard) == 0:
                continue
            block = queries_normed[members]
            flat_block = (
                coarse_scores(shard.q_matrix, shard.q_scales, block).T
                if coarse
                else block @ shard.matrix.T
            )
            doc_block = aggregate_segments(
                flat_block, shard.segments, strategy
            )
            for row, query_index in enumerate(members.tolist()):
                parts[query_index].append(
                    (shard, flat_block[row], doc_block[row])
                )
        return [QueryShardScores(scored) for scored in parts]

    def search(
        self,
        queries_normed: np.ndarray,
        strategy: ScoreStrategy,
        nprobe: Optional[int] = None,
    ) -> List[QueryShardScores]:
        """Score every query exactly against its probed shards."""
        queries_normed = np.atleast_2d(ensure_float(queries_normed))
        return self._scan(queries_normed, strategy, nprobe, coarse=False)

    def search_quantized(
        self,
        queries_normed: np.ndarray,
        strategy: ScoreStrategy,
        rescore_width: int,
        nprobe: Optional[int] = None,
    ) -> List[QueryShardScores]:
        """Coarse int8 scoring, then an exact rescore of the survivors.

        The coarse stage is :meth:`search`'s loop over the int8 copy;
        the global top-``rescore_width`` documents per query — under the
        same ``(score desc, doc id asc)`` total order as every other
        ranking site — are gathered into one ad-hoc shard whose *float*
        rows are re-scored with one exact matmul. Survivors form a
        prefix of the coarse total order, so recall@k is monotone in
        ``rescore_width``.
        """
        if not self.quantized:
            raise ValueError(
                "plan has no int8 copy; build with quantize=True or "
                "call plan.quantize() first"
            )
        queries_normed = np.atleast_2d(ensure_float(queries_normed))
        rescore_width = max(1, int(rescore_width))
        dim = queries_normed.shape[1]
        results: List[QueryShardScores] = []
        for query, coarse in zip(
            queries_normed,
            self._scan(queries_normed, strategy, nprobe, coarse=True),
        ):
            keep = topk_doc_order(
                coarse.scores, coarse.doc_ids, rescore_width
            )
            pieces = coarse.rows(keep)
            lengths = [piece.shape[0] for piece in pieces]
            survivors = Shard(
                doc_ids=coarse.doc_ids[keep],
                offsets=np.cumsum([0] + lengths, dtype=np.int64)[:-1],
                matrix=(
                    np.concatenate(pieces)
                    if pieces
                    else np.zeros((0, dim), dtype=queries_normed.dtype)
                ),
                centroid=np.zeros(0, dtype=queries_normed.dtype),
            )
            flat = survivors.matrix @ query
            scores = aggregate_segments(flat, survivors.segments, strategy)
            results.append(QueryShardScores([(survivors, flat, scores)]))
        return results


def _slices(bounds: Sequence[int]) -> List[slice]:
    """``bounds[i]:bounds[i + 1]`` for every consecutive pair."""
    return [slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:])]


def _unit_mean(matrix: np.ndarray) -> np.ndarray:
    """Unit-length mean row: a shard's coarse centroid (zero when empty)."""
    if not matrix.shape[0]:
        return np.zeros(matrix.shape[1], dtype=matrix.dtype)
    mean = np.asarray(matrix).mean(axis=0)
    norm = np.linalg.norm(mean)
    return mean / norm if norm > 0.0 else mean


def _labels_are_contiguous(labels: np.ndarray) -> bool:
    """True when equal labels occupy one contiguous run (range layout)."""
    if labels.shape[0] <= 1:
        return True
    return bool(np.all(np.diff(labels) >= 0))
