"""Shared dense bi-encoder machinery for the learned baselines.

TPRR, MDR and HopRetriever all encode *full document text* into a single
vector (the design the paper contrasts with triple-level matching). This
module provides the common pieces: a document-embedding matrix, MIPS-style
scoring, and listwise fine-tuning on the same mined (1 positive + 9
negative) examples the triple retriever trains on — so the comparison
isolates the representation, not the training recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.nn.losses import cosine_similarity
from repro.nn.optim import CLIP_NORM, Adam
from repro.nn.tensor import Tensor
from repro.perf import COUNTERS, time_block
from repro.retriever.negatives import TrainingExample
from repro.retriever.strategies import l2_normalize_rows, l2_normalize_vec


@dataclass
class DenseConfig:
    """Dense-baseline training knobs."""

    epochs: int = 2
    lr: float = 3e-4
    logit_scale: float = 4.0
    max_doc_tokens: int = 46  # document text truncation before encoding
    seed: int = 31


class DenseRetriever:
    """A full-text dense bi-encoder over a corpus.

    Subclasses override :meth:`document_text` to change what gets encoded
    (e.g. HopRetriever appends entity mentions).
    """

    def __init__(
        self,
        encoder: MiniBertEncoder,
        corpus: Corpus,
        config: Optional[DenseConfig] = None,
    ):
        self.encoder = encoder
        self.corpus = corpus
        self.config = config or DenseConfig()
        self._doc_normed: Optional[np.ndarray] = None
        self._rng = np.random.RandomState(self.config.seed)

    # -- representation ----------------------------------------------------
    def document_text(self, doc_id: int) -> str:
        """The text encoded for one document (truncate to max length)."""
        text = self.corpus[doc_id].text
        tokens = text.split()
        return " ".join(tokens[: self.config.max_doc_tokens])

    def refresh_embeddings(self, batch_size: int = 128) -> None:
        """(Re-)encode every document into the MIPS matrix."""
        texts = [self.document_text(d.doc_id) for d in self.corpus]
        matrix = self.encoder.encode_numpy(texts, batch_size=batch_size)
        COUNTERS.record_encode(len(texts))
        self._doc_normed = l2_normalize_rows(matrix)

    def _ensure_fresh(self) -> None:
        if self._doc_normed is None:
            self.refresh_embeddings()

    # -- retrieval ----------------------------------------------------------
    def encode_query(self, query: str) -> np.ndarray:
        """Normalized query embedding."""
        COUNTERS.record_encode(1)
        return l2_normalize_vec(self.encoder.encode_numpy([query])[0])

    def encode_queries(self, queries: Sequence[str]) -> np.ndarray:
        """Row-normalized query embeddings, one encoder pass."""
        if not queries:
            # the encoder's own empty result: (0, dim) in its policy dtype
            return self.encoder.encode_numpy([])
        COUNTERS.record_encode(len(queries))
        return l2_normalize_rows(self.encoder.encode_numpy(list(queries)))

    def retrieve(
        self, query: str, k: int = 10, exclude: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, float]]:
        """Top-k (doc_id, cosine) via maximum inner-product search."""
        return self.retrieve_by_vector(self.encode_query(query), k, exclude)

    def retrieve_by_vector(
        self,
        query_vec: np.ndarray,
        k: int = 10,
        exclude: Optional[Sequence[int]] = None,
    ) -> List[Tuple[int, float]]:
        """MIPS with a precomputed (normalized) query vector."""
        self._ensure_fresh()
        with time_block() as elapsed:
            scores = self._doc_normed @ query_vec
        COUNTERS.record_scoring(
            1, self._doc_normed.shape[0], self._doc_normed.shape[0],
            elapsed(),
        )
        return self._top_k(scores, k, exclude)

    def retrieve_batch(
        self,
        query_matrix: np.ndarray,
        k: int = 10,
        exclude: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[List[Tuple[int, float]]]:
        """MIPS for many queries with one ``Q×D`` matmul.

        ``exclude``, when given, holds one exclusion list per query row.
        """
        self._ensure_fresh()
        queries = np.atleast_2d(np.asarray(query_matrix))
        if queries.shape[0] == 0:
            return []
        with time_block() as elapsed:
            score_matrix = queries @ self._doc_normed.T
        COUNTERS.record_scoring(
            queries.shape[0], score_matrix.size, score_matrix.size, elapsed()
        )
        return [
            self._top_k(
                row, k, exclude[i] if exclude is not None else None
            )
            for i, row in enumerate(score_matrix)
        ]

    def _top_k(self, scores, k, exclude):
        excluded = set(exclude or ())
        # stable sort on -scores: ties keep input order = ascending doc
        # id, the same (score desc, id asc) total order as topk_doc_order
        order = np.argsort(-scores, kind="stable")
        out: List[Tuple[int, float]] = []
        for index in order:
            doc_id = int(index)
            if doc_id in excluded:
                continue
            out.append((doc_id, float(scores[index])))
            if len(out) == k:
                break
        return out

    def retrieve_titles(self, query: str, k: int = 10) -> List[str]:
        return [self.corpus[d].title for d, _ in self.retrieve(query, k=k)]

    # -- two-hop paths -------------------------------------------------------
    def hop2_query(self, question: str, doc_id: int) -> str:
        """The hop-2 query given a hop-1 document (subclass-specific)."""
        raise NotImplementedError

    def two_hop_paths(
        self,
        question: str,
        k_hop1: int,
        k_hop2: int,
        k_paths: int = 8,
    ) -> List[Tuple[str, ...]]:
        """Beam two-hop retrieval with additive path scores.

        The shared skeleton of the TPRR / MDR / HopRetriever baselines:
        hop-2 queries for the whole hop-1 beam are encoded in one batch
        and scored with a single matmul via :meth:`retrieve_batch`.
        """
        hop1_results = self.retrieve(question, k=k_hop1)
        queries = [
            self.hop2_query(question, doc_id) for doc_id, _ in hop1_results
        ]
        query_matrix = self.encode_queries(queries)
        hop2_lists = self.retrieve_batch(
            query_matrix,
            k=k_hop2,
            exclude=[[doc_id] for doc_id, _ in hop1_results],
        )
        paths: List[Tuple[str, ...]] = []
        scores: List[float] = []
        seen = set()
        for (hop1_id, hop1_score), hop2_results in zip(
            hop1_results, hop2_lists
        ):
            for hop2_id, hop2_score in hop2_results:
                key = (hop1_id, hop2_id)
                if key in seen:
                    continue
                seen.add(key)
                paths.append(
                    (self.corpus[hop1_id].title, self.corpus[hop2_id].title)
                )
                scores.append(hop1_score + hop2_score)
        order = sorted(range(len(paths)), key=lambda i: -scores[i])
        return [paths[i] for i in order[:k_paths]]

    # -- training -----------------------------------------------------------
    def train(
        self, examples: Sequence[TrainingExample], verbose: bool = False
    ) -> List[float]:
        """Listwise fine-tuning on mined 1-pos + 9-neg examples."""
        cfg = self.config
        model = self.encoder.model
        model.train()
        optimizer = Adam(self.encoder.trainable_parameters(), lr=cfg.lr)
        losses: List[float] = []
        examples = list(examples)
        for epoch in range(cfg.epochs):
            order = self._rng.permutation(len(examples))
            epoch_losses = []
            for i in order:
                example = examples[i]
                doc_ids = [example.positive_doc_id] + list(example.negative_doc_ids)
                texts = [example.question] + [
                    self.document_text(d) for d in doc_ids
                ]
                embeddings = self.encoder.encode(texts)
                scores = cosine_similarity(embeddings[0], embeddings[1:])
                logits = scores * cfg.logit_scale
                loss = -logits.softmax(axis=-1).log()[0]
                model.zero_grad()
                loss.backward()
                optimizer.clip_grad_norm(CLIP_NORM)
                optimizer.step()
                epoch_losses.append(loss.item())
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            losses.append(mean_loss)
            if verbose:  # pragma: no cover
                print(f"[dense] epoch {epoch + 1}/{cfg.epochs} loss={mean_loss:.4f}")
        model.eval()
        self.refresh_embeddings()
        return losses
