"""The explainable single retriever (paper Sec. III-B, Fig. 4).

Encodes every flattened triple fact of every document once, then answers
one-hop retrieval queries: encode the question, compute cosine scores
against all triple facts, aggregate per document with a score strategy,
return the top-k documents *with the matching triple* — the concrete,
explainable evidence the paper emphasizes.

The retriever encodes and delegates: :meth:`SingleRetriever.
refresh_embeddings` stacks all triples into one L2-normalized
``(total_triples, dim)`` matrix with per-document offsets, and every
request is scored by the :class:`~repro.shard.plan.ShardPlan` built over
that matrix — by default one shard that is a zero-copy view of it,
probed in full (exact retrieval); :meth:`SingleRetriever.build_shards`
swaps in an N-shard plan with centroid pruning and an int8 coarse stage.
:meth:`SingleRetriever.retrieve_batch` is the one entry point that
scores; :meth:`SingleRetriever.retrieve_many` encodes a batch of question
texts and calls it (one question is a batch of one).

Embedding maintenance is **incremental**, and its whole state is one
:class:`repro.ingest.embedding_store.EmbeddingStore` (matrix, segment
layout, per-document row hashes, encoder fingerprint): the next
:meth:`SingleRetriever.refresh_embeddings` re-encodes only documents
whose rows or encoder changed and reuses every other segment verbatim.
:meth:`SingleRetriever.attach_embeddings` holds a persisted store
instead of a built one, so a warm start re-encodes nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.encoder.minibert import MiniBertEncoder
from repro.ingest.embedding_store import EmbeddingStore
from repro.ingest.fingerprint import encoder_fingerprint
from repro.oie.triple import Triple
from repro.perf import COUNTERS, time_block
from repro.precision import PrecisionLike, cast_matrix, resolve
from repro.retriever.store import TripleStore
from repro.retriever.strategies import ScoreStrategy, l2_normalize_rows
from repro.shard.merge import topk_doc_order
from repro.shard.plan import ShardPlan

#: Texts per encoder forward when (re-)encoding store rows: bounds the
#: padded rectangle a bulk encode holds at once.
ENCODE_BATCH_SIZE = 128


@dataclass(slots=True)
class RetrievedDocument:
    """One retrieval result with its explanation."""

    doc_id: int
    title: str
    score: float
    matched_triple: Optional[Triple]  # the explaining triple (argmax)
    triple_scores: Optional[np.ndarray] = None

    def explain(self) -> str:
        """Human-readable justification of why this document matched."""
        if self.matched_triple is None:
            return f"{self.title}: no triple facts (score {self.score:.3f})"
        return (
            f"{self.title}: matched triple {self.matched_triple} "
            f"(score {self.score:.3f})"
        )


class SingleRetriever:
    """Dense triple-fact retrieval over a :class:`TripleStore`."""

    def __init__(
        self,
        encoder: MiniBertEncoder,
        store: TripleStore,
    ):
        self.encoder = encoder
        self.store = store
        # dtype policy of every matrix this retriever holds, the
        # encoder's: an exact-parity (float64) encoder yields an
        # exact-parity retriever (duck-typed: stub encoders without a
        # policy get the default)
        self.precision = resolve(getattr(encoder, "precision", None))
        # the embedding state: ONE store (attached or built by refresh);
        # _normed/_doc_pos are derived from it, _normed is None until the
        # store has been checked against the triple store by a refresh
        self._held: Optional[EmbeddingStore] = None
        self._normed: Optional[np.ndarray] = None
        self._doc_pos: Dict[int, int] = {}
        # the scoring plan: (n_shards, mode, quantize) spec, None for the
        # default one-shard exact plan; rebuilt whenever the matrices are
        self._shard_spec: Optional[tuple] = None
        self._shard_plan: Optional[ShardPlan] = None

    # -- embedding maintenance ------------------------------------------------
    def refresh_embeddings(self) -> int:
        """(Re-)encode the flattened triples of documents whose rows changed.

        Call after training the encoder or editing the store; retrieval
        scores the held :class:`EmbeddingStore`. Besides the store this
        builds the flat normalized matrix and the scoring plan over it.

        Incremental: a document's held rows are reused verbatim when its
        triples hash (:func:`~repro.ingest.fingerprint.triples_fingerprint`,
        read off ``store.row_hash``: a loaded segment carries it, so a
        clean document is neither parsed nor flattened here), its row
        count and the encoder fingerprint all match what the rows were
        computed under — whether held from a previous refresh or from a
        persisted store via :meth:`attach_embeddings`. When nothing is
        dirty the held store is kept as is (memmap and generation
        included); otherwise all dirty documents are re-encoded in one
        encoder pass into a new, never-published store (reused rows copied
        a run of adjacent documents at a time), so a full refresh stays
        bitwise-identical to the original always-recompute implementation.
        Returns the number of rows that were (re-)encoded; to recompute
        everything, :meth:`detach_embeddings` first.
        """
        current_fp = encoder_fingerprint(self.encoder)
        held = self._held
        if held is not None and held.encoder_fingerprint != current_fp:
            held = None
        dtype = self.precision.dtype
        store = self.store
        doc_ids = store.doc_ids()
        offsets: List[int] = []
        row_hashes: Dict[int, str] = {}
        # where the new matrix's rows come from: runs of held rows
        # ([to, from, n]; a reused document extends the open run when
        # both sides follow on, so the copies number about twice the
        # dirty documents) and, per dirty document, (to, n) rows of
        # the one encode call
        copies: List[List[int]] = []
        fresh: List[Tuple[int, int]] = []
        dirty_texts: List[str] = []
        total = 0
        for doc_id in doc_ids:
            n_rows = store.n_triples(doc_id)
            row_hash = store.row_hash(doc_id)
            index = self._doc_pos.get(doc_id) if held is not None else None
            start = None
            if index is not None:
                start, stop = held.bounds(index)
                if (
                    held.row_hashes.get(doc_id) != row_hash
                    or stop - start != n_rows
                ):
                    start = None
            if start is None:
                dirty_texts.extend(store.flattened(doc_id))
                fresh.append((total, n_rows))
            elif copies and (
                copies[-1][0] + copies[-1][2] == total
                and copies[-1][1] + copies[-1][2] == start
            ):
                copies[-1][2] += n_rows
            else:
                copies.append([total, start, n_rows])
            offsets.append(total)
            row_hashes[doc_id] = row_hash
            total += n_rows
        if (
            held is None
            or dirty_texts
            or held.doc_ids != doc_ids
            or held.matrix.shape[0] != total
        ):
            dim = self.encoder.config.dim
            matrix = np.empty((total, dim), dtype=dtype)
            for to, at, n_rows in copies:
                matrix[to : to + n_rows] = held.matrix[at : at + n_rows]
            if dirty_texts:
                encoded = cast_matrix(
                    self.encoder.encode_numpy(
                        dirty_texts, batch_size=ENCODE_BATCH_SIZE
                    ),
                    dtype,
                )
                COUNTERS.record_encode(len(dirty_texts))
                cursor = 0
                for to, n_rows in fresh:
                    matrix[to : to + n_rows] = encoded[
                        cursor : cursor + n_rows
                    ]
                    cursor += n_rows
            held = EmbeddingStore(
                matrix=matrix,
                doc_ids=doc_ids,
                offsets=offsets,
                row_hashes=row_hashes,
                encoder_fingerprint=current_fp,
            )
            self._held = held
            self._doc_pos = {d: i for i, d in enumerate(doc_ids)}
        # else: clean warm start — score straight off the held
        # (possibly memmapped) matrix, no per-segment reassembly
        self._normed = l2_normalize_rows(np.asarray(held.matrix))
        self._rebuild_shard_plan()
        return len(dirty_texts)

    def attach_embeddings(self, embeddings: EmbeddingStore) -> int:
        """Hold a persisted :class:`EmbeddingStore` as the embedding state.

        The next :meth:`refresh_embeddings` re-encodes only documents
        whose rows (or the encoder) changed since the store was written —
        zero on a clean warm start, which keeps this very store. Returns
        the number of rows adopted; a store with the wrong embedding
        dimension or dtype or an inconsistent layout is rejected
        (returns 0, nothing held).
        """
        self.detach_embeddings()
        matrix = embeddings.matrix
        if matrix.ndim != 2 or matrix.shape[1] != self.encoder.config.dim:
            return 0
        if np.dtype(matrix.dtype) != self.precision.dtype:
            # a store persisted under another precision policy (e.g. a
            # legacy float64 store on a float32 retriever) must not leak
            # its dtype into scoring — reject and let refresh re-encode
            return 0
        total = int(matrix.shape[0])
        starts = list(embeddings.offsets)
        if len(embeddings.doc_ids) != len(starts) or any(
            not 0 <= start <= stop <= total
            for start, stop in zip(starts, starts[1:] + [total])
        ):
            return 0
        self._held = embeddings
        self._doc_pos = {int(d): i for i, d in enumerate(embeddings.doc_ids)}
        return total

    @property
    def store_generation(self) -> Optional[int]:
        """Publish generation of the held store (None when nothing is held).

        The attached generation on a clean warm start, 0 (never
        published) once a refresh had to build a new store, the new
        number after ``export_embeddings().save()``. Networked serving
        tags every response with the generation its worker scored
        against, so clients can prove a single answer never mixes store
        generations across a hot swap.
        """
        return None if self._held is None else self._held.generation

    def detach_embeddings(self) -> None:
        """Drop the held store and everything derived from it."""
        self._held = None
        self._normed = None
        self._doc_pos = {}
        self._shard_plan = None

    def export_embeddings(self) -> EmbeddingStore:
        """The held (fresh) store itself, ready to ``save``."""
        self._ensure_fresh()
        return self._held

    def ensure_ready(self) -> None:
        """Build (or finish warm-starting) the matrices and scoring plan."""
        self._ensure_fresh()

    def _ensure_fresh(self) -> None:
        if self._normed is None:
            self.refresh_embeddings()
        elif self._shard_plan is None:
            self._rebuild_shard_plan()

    # -- the scoring plan -----------------------------------------------------
    @property
    def shard_plan(self) -> Optional[ShardPlan]:
        """The :class:`ShardPlan` requests are scored through.

        None only until the matrices exist (:meth:`ensure_ready`).
        """
        return self._shard_plan

    def build_shards(
        self, n_shards: int, mode: str = "range", quantize: bool = False
    ) -> ShardPlan:
        """Split the scoring matrix into ``n_shards`` with centroid pruning.

        Replaces the default one-shard plan: subsequent
        :meth:`retrieve_batch` calls score per shard (with an exact
        global merge) and accept ``nprobe`` and ``int8-rescore``.
        The plan is rebuilt automatically on every embedding refresh.
        ``quantize`` (implied when the retriever's precision policy is
        int8-rescore) derives the int8 shard copies that quantized
        requests score coarsely.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        quantize = bool(quantize) or self.precision.quantized
        self._shard_spec = (int(n_shards), mode, quantize)
        self._shard_plan = None
        self._ensure_fresh()
        return self._shard_plan

    def detach_shards(self) -> None:  # lint: ignore[dead-symbol] -- the parity tests' unsharded reference
        """Return to the default one-shard exact plan (cache untouched)."""
        self._shard_spec = None
        self._shard_plan = None

    def _rebuild_shard_plan(self) -> None:
        n_shards, mode, quantize = self._shard_spec or (1, "range", False)
        self._shard_plan = ShardPlan.build(
            self._normed,
            self._held.doc_ids,
            self._held.offsets,
            n_shards,
            mode=mode,
            quantize=quantize,
        )

    def doc_embeddings(self, doc_id: int) -> np.ndarray:
        """The held triple embedding matrix of one document."""
        self._ensure_fresh()
        position = self._doc_pos.get(doc_id)
        if position is None:
            return np.zeros(
                (0, self.encoder.config.dim), dtype=self.precision.dtype
            )
        return self._held.segment(position)

    # -- retrieval ----------------------------------------------------------
    def encode_questions(self, questions: Sequence[str]) -> np.ndarray:
        """Batch of question embeddings, one encoder pass."""
        if not questions:
            return np.zeros(
                (0, self.encoder.config.dim), dtype=self.precision.dtype
            )
        COUNTERS.record_encode(len(questions))
        return cast_matrix(
            self.encoder.encode_numpy(list(questions)), self.precision.dtype
        )

    def retrieve_many(
        self,
        questions: Sequence[str],
        k: int = 10,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[List[RetrievedDocument]]:
        """Top-k documents for a batch of question *texts*.

        The text entry point; one question is a batch of one. One encoder
        pass over all questions (:meth:`encode_questions`), then one
        :meth:`retrieve_batch` call with the one-fact strategy.
        """
        return self.retrieve_batch(
            self.encode_questions(questions),
            k=k,
            nprobe=nprobe,
            precision=precision,
        )

    def retrieve_batch(
        self,
        query_matrix: np.ndarray,
        k: int = 10,
        strategy: Optional[ScoreStrategy] = None,
        keep_triple_scores: bool = False,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[List[RetrievedDocument]]:
        """Top-k documents for every row of ``query_matrix`` at once.

        Validates the request, normalizes the queries and hands them to
        the scoring plan: one matmul and one segment reduction per probed
        shard (one in all when every shard is probed), one ``(score desc,
        doc id asc)`` merge, and the explaining triple looked up for the
        k winners only. Returns one result list per query row.

        ``strategy`` aggregates a document's triple cosines (default
        one-fact, Eq. 2; Table IV compares the others).
        ``keep_triple_scores`` keeps every winner's triple cosines on its
        result (hop 1 hands them to clue selection).

        ``nprobe`` prunes to that many centroid-closest shards and needs
        a plan from :meth:`build_shards` (None or ``>= n_shards`` probes
        everything, which is exact at any shard count).

        ``precision`` overrides the retriever policy per request. A float
        request must match the dtype the matrices are held in — a
        mixed-precision retriever never silently serves an exact-mode
        request. ``int8-rescore`` requests need a built plan too (whose
        int8 copy is derived on first use).
        """
        self._ensure_fresh()
        strategy = strategy or ScoreStrategy()
        requested = (
            self.precision if precision is None else resolve(precision)
        )
        if not requested.quantized and (
            requested.dtype != self.precision.dtype
        ):
            raise ValueError(
                f"retriever holds {self.precision.dtype.name} matrices; "
                f"cannot serve a {requested.mode} request exactly"
            )
        if nprobe is not None and nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        if self._shard_spec is None and (
            nprobe is not None or requested.quantized
        ):
            feature = "nprobe" if nprobe is not None else "int8-rescore"
            raise ValueError(
                f"{feature} requires an active shard plan; call "
                "build_shards() first"
            )
        queries = l2_normalize_rows(
            np.atleast_2d(cast_matrix(query_matrix, self.precision.dtype))
        )
        plan = self._shard_plan
        if queries.shape[0] == 0 or plan.total_docs == 0 or k <= 0:
            return [[] for _ in range(queries.shape[0])]
        with time_block() as elapsed:
            if requested.quantized:
                if not plan.quantized:
                    # deterministic and cheap relative to plan builds, so
                    # a first quantized request may derive the int8 copy
                    plan.quantize()
                scored = plan.search_quantized(
                    queries,
                    strategy,
                    max(int(requested.rescore_width), int(k)),
                    nprobe,
                )
            else:
                scored = plan.search(queries, strategy, nprobe)
        COUNTERS.record_scoring(
            n_queries=queries.shape[0],
            n_docs=sum(int(q.doc_ids.shape[0]) for q in scored),
            n_triples=sum(q.n_triples for q in scored),
            seconds=elapsed(),
        )
        out: List[List[RetrievedDocument]] = []
        for query_scores in scored:
            order = topk_doc_order(
                query_scores.scores, query_scores.doc_ids, k
            )
            results: List[RetrievedDocument] = []
            for position, (local, cosines) in zip(
                order.tolist(), query_scores.explain(order)
            ):
                doc_id = int(query_scores.doc_ids[position])
                triples = self.store.triples(doc_id)
                matched_triple = (
                    triples[local] if 0 <= local < len(triples) else None
                )
                results.append(
                    RetrievedDocument(
                        doc_id=doc_id,
                        title=self.store.corpus[doc_id].title,
                        score=float(query_scores.scores[position]),
                        matched_triple=matched_triple,
                        triple_scores=(
                            cosines.copy() if keep_triple_scores else None
                        ),
                    )
                )
            out.append(results)
        return out
