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

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.precision import (
    ACCUM_DTYPE,
    coarse_scores,
    ensure_float,
    quantize_rows,
)
from repro.retriever.strategies import (
    ScoreStrategy,
    aggregate_segments,
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

    shard_id: int
    doc_ids: np.ndarray  # (n_docs,) int64, ascending
    offsets: np.ndarray  # (n_docs,) int64 shard-local segment starts
    matrix: np.ndarray  # (n_rows, dim) L2-normalized triple rows
    centroid: np.ndarray  # (dim,) unit centroid (zero when empty)
    q_matrix: Optional[np.ndarray] = None  # (n_rows, dim) int8 rows
    q_scales: Optional[np.ndarray] = None  # (n_rows,) float32 row scales

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def quantized(self) -> bool:
        return self.q_matrix is not None

    def __len__(self) -> int:
        return int(self.doc_ids.shape[0])


class QueryShardScores:
    """One query's scored shards, mergeable into a global ranking.

    Built from ``(shard, flat per-triple scores)`` parts in probe order:
    aggregates each part per document and lays the parts end to end.
    :meth:`triple_scores` recovers the flat per-triple scores of one
    ranked document (the explanation path) without re-scoring. A
    quantized search returns the one-part case: the rescored survivors.
    """

    __slots__ = ("doc_ids", "scores", "matched", "_bounds", "_parts")

    def __init__(
        self,
        parts: Sequence[Tuple[Shard, np.ndarray]],
        strategy: ScoreStrategy,
    ) -> None:
        aggregates = [
            aggregate_segments(flat, shard.offsets, strategy)
            for shard, flat in parts
        ]
        self.doc_ids = _join([shard.doc_ids for shard, _ in parts], np.int64)
        self.scores = _join([agg for agg, _ in aggregates], ACCUM_DTYPE)
        self.matched = _join([hit for _, hit in aggregates], np.int64)
        self._bounds = np.cumsum([0] + [len(shard) for shard, _ in parts])
        self._parts = parts

    @property
    def n_triples(self) -> int:
        """Triple rows this query was scored against."""
        return sum(int(flat.shape[0]) for _, flat in self._parts)

    def _segments(
        self, positions: Sequence[int]
    ) -> Iterator[Tuple[Shard, np.ndarray, int, int]]:
        """(shard, flat scores, row start, row stop) per merged position."""
        positions = np.asarray(positions, dtype=np.int64)
        parts = np.searchsorted(self._bounds, positions, side="right") - 1
        local_positions = positions - self._bounds[parts]
        for part, local in zip(parts.tolist(), local_positions.tolist()):
            shard, flat = self._parts[part]
            offsets = shard.offsets
            stop = (
                offsets[local + 1]
                if local + 1 < offsets.shape[0]
                else flat.shape[0]
            )
            yield shard, flat, offsets[local], stop

    def triple_scores(self, position: int) -> np.ndarray:
        """Flat triple scores of the document at merged ``position``."""
        ((_, flat, start, stop),) = self._segments([position])
        return flat[start:stop].copy()

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
    """N shards over one stacked matrix + the centroid pruning layer."""

    def __init__(
        self,
        shards: List[Shard],
        mode: str,
        assignment: Dict[int, int],
        quantized: bool = False,
    ):
        self.shards = shards
        self.mode = mode
        self.assignment = assignment  # doc_id -> shard_id
        self.quantized = quantized
        self.centroids = (
            np.stack([s.centroid for s in shards])
            if shards
            else np.zeros((0, 0), dtype=ACCUM_DTYPE)
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def total_rows(self) -> int:
        return sum(shard.n_rows for shard in self.shards)

    @property
    def total_docs(self) -> int:
        return sum(len(shard) for shard in self.shards)

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
        stops = (
            np.concatenate([offset_arr[1:], [total]])
            if n_docs
            else np.zeros(0, dtype=np.int64)
        )
        if mode == "centroid":
            labels = assign_documents(
                mode,
                n_docs,
                n_shards,
                doc_vectors=segment_means(normed_matrix, offset_arr),
            )
        else:
            labels = assign_documents(mode, n_docs, n_shards)
        shards: List[Shard] = []
        contiguous = _labels_are_contiguous(labels)
        for shard_id in range(n_shards):
            positions = np.nonzero(labels == shard_id)[0]
            if positions.size == 0:
                dim = normed_matrix.shape[1] if normed_matrix.ndim == 2 else 0
                shards.append(
                    Shard(
                        shard_id=shard_id,
                        doc_ids=np.zeros(0, dtype=np.int64),
                        offsets=np.zeros(0, dtype=np.int64),
                        matrix=np.zeros((0, dim), dtype=normed_matrix.dtype),
                        centroid=np.zeros(dim, dtype=normed_matrix.dtype),
                    )
                )
                continue
            lengths = stops[positions] - offset_arr[positions]
            local_offsets = np.concatenate(
                [[0], np.cumsum(lengths)[:-1]]
            ).astype(np.int64)
            if contiguous:
                # contiguous doc chunk -> the shard matrix is a zero-copy
                # view into the stacked matrix
                row_start = int(offset_arr[positions[0]])
                row_stop = int(stops[positions[-1]])
                matrix = normed_matrix[row_start:row_stop]
            else:
                pieces = [
                    normed_matrix[offset_arr[p] : stops[p]]
                    for p in positions
                ]
                matrix = (
                    np.concatenate(pieces)
                    if pieces
                    else np.zeros(
                        (0, normed_matrix.shape[1]),
                        dtype=normed_matrix.dtype,
                    )
                )
            if matrix.shape[0]:
                mean = np.asarray(matrix).mean(axis=0)
                norm = np.linalg.norm(mean)
                centroid = mean / norm if norm > 0.0 else mean
            else:
                centroid = np.zeros(
                    normed_matrix.shape[1], dtype=normed_matrix.dtype
                )
            shards.append(
                Shard(
                    shard_id=shard_id,
                    doc_ids=doc_id_arr[positions],
                    offsets=local_offsets,
                    matrix=matrix,
                    centroid=centroid,
                )
            )
        mapping = {
            int(doc_id_arr[i]): int(labels[i]) for i in range(n_docs)
        }
        plan = cls(shards=shards, mode=mode, assignment=mapping)
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
    ) -> List[np.ndarray]:
        """Per-query shard ids to score, closest centroid first.

        ``nprobe`` of None (or >= ``n_shards``) probes everything — the
        no-pruning, provably exact configuration, which scores no
        centroid. Centroid ties break toward the lower shard id so
        probing is deterministic.
        """
        n_shards = self.n_shards
        if nprobe is not None and nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        queries_normed = np.atleast_2d(queries_normed)
        if nprobe is None or nprobe >= n_shards:
            every = np.arange(n_shards, dtype=np.int64)
            return [every for _ in range(queries_normed.shape[0])]
        centroid_scores = queries_normed @ self.centroids.T
        shard_ids = np.arange(n_shards, dtype=np.int64)
        out: List[np.ndarray] = []
        for row in centroid_scores:
            order = np.lexsort((shard_ids, -row))
            out.append(order[: int(nprobe)].astype(np.int64))
        return out

    def _scan(
        self,
        queries_normed: np.ndarray,
        strategy: ScoreStrategy,
        nprobe: Optional[int],
        coarse: bool,
    ) -> List[QueryShardScores]:
        """Probe, group queries by shard, score each group (shard-major).

        One product per (shard, queries-probing-it) group, so a batch
        pays each shard's matrix at most once: the float rows, or with
        ``coarse`` the int8 copy chunk-wise (~1 byte of DRAM traffic per
        matrix element).
        """
        probed = self.probe(queries_normed, nprobe)
        parts: List[List[Tuple[Shard, np.ndarray]]] = [[] for _ in probed]
        by_shard: Dict[int, List[int]] = {}
        for query_index, shard_ids in enumerate(probed):
            for shard_id in shard_ids:
                by_shard.setdefault(int(shard_id), []).append(query_index)
        for shard_id in sorted(by_shard):
            shard = self.shards[shard_id]
            if len(shard) == 0:
                continue
            query_indices = by_shard[shard_id]
            block = queries_normed[query_indices]
            flat_block = (
                coarse_scores(shard.q_matrix, shard.q_scales, block).T
                if coarse
                else block @ shard.matrix.T
            )
            for row, query_index in enumerate(query_indices):
                parts[query_index].append((shard, flat_block[row]))
        return [QueryShardScores(scored, strategy) for scored in parts]

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
            keep = topk_doc_order(coarse.scores, coarse.doc_ids, rescore_width)
            pieces = coarse.rows(keep)
            lengths = [piece.shape[0] for piece in pieces]
            survivors = Shard(
                shard_id=-1,
                doc_ids=coarse.doc_ids[keep],
                offsets=np.cumsum([0] + lengths, dtype=np.int64)[:-1],
                matrix=(
                    np.concatenate(pieces)
                    if pieces
                    else np.zeros((0, dim), dtype=queries_normed.dtype)
                ),
                centroid=np.zeros(0, dtype=queries_normed.dtype),
            )
            results.append(
                QueryShardScores(
                    [(survivors, survivors.matrix @ query)], strategy
                )
            )
        return results


def _labels_are_contiguous(labels: np.ndarray) -> bool:
    """True when equal labels occupy one contiguous run (range layout)."""
    if labels.shape[0] <= 1:
        return True
    return bool(np.all(np.diff(labels) >= 0))
