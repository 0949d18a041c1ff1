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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus
from repro.encoder.minibert import MiniBertEncoder
from repro.nn.losses import cosine_similarity
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor
from repro.perf import COUNTERS, time_block
from repro.retriever.negatives import TrainingExample
from repro.retriever.single import ENCODE_BATCH_SIZE
from repro.retriever.strategies import l2_normalize_rows
from repro.shard.merge import topk_doc_order


LOGIT_SCALE = 4.0  # cosine -> logit multiplier of the listwise loss
MAX_DOC_TOKENS = 46  # document text truncation before encoding
SEED = 31  # of the example order
K_HOP1 = 8  # hop-1 beam of the path search
K_HOP2 = 4  # hop-2 documents per beam document


@dataclass
class DenseConfig:
    """Dense-baseline training knobs."""

    epochs: int = 2
    lr: float = 3e-4


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
        self._rng = np.random.RandomState(SEED)

    # -- representation ----------------------------------------------------
    def document_text(self, doc_id: int) -> str:
        """The text encoded for one document (truncate to max length)."""
        text = self.corpus[doc_id].text
        tokens = text.split()
        return " ".join(tokens[:MAX_DOC_TOKENS])

    def refresh_embeddings(self) -> None:
        """(Re-)encode every document into the MIPS matrix."""
        texts = [self.document_text(d.doc_id) for d in self.corpus]
        matrix = self.encoder.encode_numpy(texts, batch_size=ENCODE_BATCH_SIZE)
        COUNTERS.record_encode(len(texts))
        self._doc_normed = l2_normalize_rows(matrix)

    def _ensure_fresh(self) -> None:
        if self._doc_normed is None:
            self.refresh_embeddings()

    # -- retrieval ----------------------------------------------------------
    def encode_queries(self, queries: Sequence[str]) -> np.ndarray:
        """Row-normalized query embeddings, one encoder pass."""
        if not queries:
            # the encoder's own empty result: (0, dim) in its policy dtype
            return self.encoder.encode_numpy([])
        COUNTERS.record_encode(len(queries))
        return l2_normalize_rows(self.encoder.encode_numpy(list(queries)))

    def retrieve_batch(
        self,
        query_matrix: np.ndarray,
        k: int,
        exclude: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Top-k (doc_id, cosine) per query row, one ``Q×D`` matmul.

        Ranked in the (score desc, doc id asc) order of every retrieval
        site; ``exclude``, when given, holds one exclusion list per row.
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
        doc_ids = np.arange(score_matrix.shape[1])
        out: List[List[Tuple[int, float]]] = []
        for i, row in enumerate(score_matrix):
            excluded = set(exclude[i]) if exclude is not None else set()
            order = topk_doc_order(row, doc_ids, k + len(excluded))
            hits = [
                (int(d), float(row[d])) for d in order if int(d) not in excluded
            ]
            out.append(hits[:k])
        return out

    def retrieve_documents(self, question: str, k: int) -> List[str]:
        """One-hop retrieval: the top-k titles (Table IV's "TPR" row)."""
        hits = self.retrieve_batch(self.encode_queries([question]), k)[0]
        return [self.corpus[doc_id].title for doc_id, _ in hits]

    # -- two-hop paths -------------------------------------------------------
    def hop2_query(self, question: str, doc_id: int) -> str:
        """The hop-2 query given a hop-1 document (subclass-specific)."""
        raise NotImplementedError

    def retrieve_paths(self, question: str, k_paths: int) -> List[Tuple[str, ...]]:
        """Beam two-hop retrieval with additive path scores (Table V).

        The shared skeleton of the TPRR / MDR / HopRetriever baselines:
        hop-2 queries for the whole hop-1 beam are encoded in one batch
        and scored with a single matmul via :meth:`retrieve_batch`.
        """
        hop1_results = self.retrieve_batch(
            self.encode_queries([question]), K_HOP1
        )[0]
        queries = [
            self.hop2_query(question, doc_id) for doc_id, _ in hop1_results
        ]
        hop2_lists = self.retrieve_batch(
            self.encode_queries(queries),
            K_HOP2,
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
        examples = list(examples)

        def example_loss(index: int) -> Tensor:
            example = examples[index]
            doc_ids = [example.positive_doc_id] + list(example.negative_doc_ids)
            texts = [example.question] + [self.document_text(d) for d in doc_ids]
            embeddings = self.encoder.encode(texts)
            scores = cosine_similarity(embeddings[0], embeddings[1:])
            logits = scores * LOGIT_SCALE
            return -logits.softmax(axis=-1).log()[0]

        losses = train_epochs(
            Adam(self.encoder.trainable_parameters(), lr=cfg.lr),
            len(examples),
            example_loss,
            epochs=cfg.epochs,
            rng=self._rng,
            name="dense",
            verbose=verbose,
        )
        self.refresh_embeddings()
        return losses
