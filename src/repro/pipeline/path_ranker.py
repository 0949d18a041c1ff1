"""The document-path ranking model ("Triple-fact Retrieval", Sec. IV-E).

The base pipeline is forward-greedy: hop-1 selection never sees hop-2
evidence, so paths are suboptimal. The ranking model rescores complete
candidate paths against the *original* question — "the ranking model is
same to the single retriever while the only change is to use the document
path as the document input".

A path's representation combines the encoder view (the question with each
hop's best-matching triple) with the statistics that make a reasoning
chain coherent and that bag-like embeddings cannot expose to a linear
head: per-hop relevance, triple-to-triple affinity, and the lexical bridge
evidence (does the hop-1 document's evidence mention the hop-2 document's
title, or does the question itself name it, as in comparison questions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus
from repro.data.hotpot import HotpotQuestion
from repro.nn.layers import Linear
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor
from repro.perf import COUNTERS
from repro.pipeline.multihop import DocumentPath, MultiHopRetriever
from repro.retriever.single import SingleRetriever
from repro.retriever.strategies import l2_normalize_rows
from repro.text.tokenize import tokenize


LR = 3e-3
SEED = 29  # of the head's init and of the example order
BLEND = 0.8  # rerank score = BLEND * ranker + (1 - BLEND) * base score
MAX_CANDIDATES = 8  # candidate paths per training example, gold among them


@dataclass
class PathRankerConfig:
    """Path-ranker training knobs."""

    epochs: int = 2


class PathRanker:
    """Scores complete (question, path) pairs."""

    N_SCALARS = 7

    def __init__(
        self,
        retriever: SingleRetriever,
        config: Optional[PathRankerConfig] = None,
    ):
        self.retriever = retriever
        self.config = config or PathRankerConfig()
        rng = np.random.RandomState(SEED)
        self.head = Linear(
            retriever.encoder.config.dim + self.N_SCALARS, 1, rng=rng
        )

    # -- features ----------------------------------------------------------
    def _best_triple(self, query_vec: np.ndarray, doc_id: int):
        """(triple, score, embedding) of the doc's best match for the query."""
        triples = self.retriever.store.triples(doc_id)
        matrix = self.retriever.doc_embeddings(doc_id)
        if not len(triples) or matrix.shape[0] == 0:
            return None, 0.0, None
        norm = np.linalg.norm(query_vec)
        if norm:
            query_vec = query_vec / norm
        scores = l2_normalize_rows(matrix) @ query_vec
        index = int(scores.argmax())
        return triples[index], float(scores[index]), matrix[index]

    @staticmethod
    def _idf_overlap(weights, vocab, source_tokens, target_tokens) -> float:
        # distinct tokens in first-occurrence order: a set's order is the
        # string-hash order, and float sums depend on the order
        target = dict.fromkeys(target_tokens)
        total = sum(weights[vocab.id_of(t)] for t in target) or 1.0
        hit = sum(
            weights[vocab.id_of(t)] for t in target if t in source_tokens
        )
        return hit / total

    def _scalar_features(
        self, question: str, query_vec: np.ndarray, path: DocumentPath
    ) -> Tuple[np.ndarray, str]:
        """(scalar features, path text) given a pre-encoded question."""
        encoder = self.retriever.encoder
        vocab, weights = encoder.vocab, encoder._token_weights
        question_tokens = set(tokenize(question))
        doc1, doc2 = path.doc_ids[0], path.doc_ids[1]
        triple1, score1, vec1 = self._best_triple(query_vec, doc1)
        triple2, score2, vec2 = self._best_triple(query_vec, doc2)
        title2 = self.retriever.store.corpus[doc2].title
        title1 = self.retriever.store.corpus[doc1].title
        # triple-to-triple affinity
        if vec1 is not None and vec2 is not None:
            denom = (np.linalg.norm(vec1) * np.linalg.norm(vec2)) or 1.0
            affinity = float(vec1 @ vec2 / denom)
        else:
            affinity = 0.0
        # lexical bridge evidence
        doc1_evidence = set()
        for triple in self.retriever.store.triples(doc1):
            doc1_evidence.update(tokenize(triple.flatten()))
        bridge_lex = self._idf_overlap(
            weights, vocab, doc1_evidence, tokenize(title2)
        )
        title2_in_q = self._idf_overlap(
            weights, vocab, question_tokens, tokenize(title2)
        )
        title1_in_q = self._idf_overlap(
            weights, vocab, question_tokens, tokenize(title1)
        )
        scalars = np.array(
            [
                score1,
                score2,
                affinity,
                bridge_lex,
                max(bridge_lex, title2_in_q),  # some source explains hop 2
                title2_in_q,
                title1_in_q,
            ]
        )
        parts = [question]
        if triple1 is not None:
            parts.append(triple1.flatten())
        if triple2 is not None:
            parts.append(triple2.flatten())
        path_text = " [SEP] ".join(parts)
        return scalars, path_text

    def _feature_matrix(
        self, question: str, paths: Sequence[DocumentPath]
    ) -> np.ndarray:
        """Feature rows for all candidate paths of one question.

        The question is encoded once and all path texts go through the
        encoder as a single batch, instead of one encoder call per path.
        """
        query_vec = self.retriever.encode_questions([question])[0]
        scalar_rows: List[np.ndarray] = []
        path_texts: List[str] = []
        for path in paths:
            scalars, path_text = self._scalar_features(
                question, query_vec, path
            )
            scalar_rows.append(scalars)
            path_texts.append(path_text)
        COUNTERS.record_encode(len(path_texts))
        embeddings = self.retriever.encoder.encode_numpy(path_texts)
        return np.concatenate([embeddings, np.stack(scalar_rows)], axis=1)

    # -- scoring ----------------------------------------------------------
    def score_paths(
        self, question: str, paths: Sequence[DocumentPath]
    ) -> np.ndarray:
        """Ranker scores for candidate paths (no gradients)."""
        if not paths:
            return np.zeros(0)
        features = self._feature_matrix(question, paths)
        return (features @ self.head.weight.data).reshape(-1) + float(
            self.head.bias.data[0]
        )

    def rerank(
        self, question: str, paths: Sequence[DocumentPath], k: Optional[int] = None
    ) -> List[DocumentPath]:
        """Blend ranker scores with base scores and re-sort."""
        if not paths:
            return []
        ranker_scores = self.score_paths(question, paths)
        base = np.asarray([p.score for p in paths])

        def _norm(x):
            spread = x.std() or 1.0
            return (x - x.mean()) / spread

        blended = BLEND * _norm(ranker_scores) + (1 - BLEND) * _norm(base)
        # stable sort: tied blended scores keep the (already
        # deterministic) upstream path order, so reranking is a total
        # order like topk_doc_order's (score desc, id asc)
        order = np.argsort(-blended, kind="stable")
        reranked = []
        for index in order:
            path = paths[int(index)]
            reranked.append(
                DocumentPath(
                    doc_ids=path.doc_ids,
                    titles=path.titles,
                    score=float(blended[int(index)]),
                    hop_scores=path.hop_scores,
                    clue=path.clue,
                    matched_triples=path.matched_triples,
                    updated_question=path.updated_question,
                )
            )
        if k is None:
            return reranked
        return reranked[: max(k, 0)]


class PathRankerTrainer:
    """Listwise training of the path ranker head."""

    def __init__(self, ranker: PathRanker):
        self.ranker = ranker
        self._rng = np.random.RandomState(SEED)

    def build_examples(
        self,
        questions: Sequence[HotpotQuestion],
        corpus: Corpus,
        multihop: MultiHopRetriever,
    ) -> List[Tuple[str, List[DocumentPath], int]]:
        """(question, candidate paths, gold index) — gold injected if the
        pipeline missed it, so supervision always exists."""
        examples = []
        for question in questions:
            gold_ids = tuple(
                corpus.by_title(t).doc_id
                for t in question.gold_titles
                if corpus.by_title(t) is not None
            )
            if len(gold_ids) < 2:
                continue
            candidates = multihop.retrieve_paths_batch(
                [question.text], k_paths=MAX_CANDIDATES
            )[0]
            gold_set = frozenset(question.gold_titles)
            gold_index = None
            for index, path in enumerate(candidates):
                if path.title_set == gold_set:
                    gold_index = index
                    break
            if gold_index is None:
                gold_path = DocumentPath(
                    doc_ids=gold_ids,
                    titles=tuple(question.gold_titles),
                    score=0.0,
                )
                candidates = [gold_path] + candidates[: MAX_CANDIDATES - 1]
                gold_index = 0
            if len(candidates) < 2:
                continue
            examples.append((question.text, candidates, gold_index))
        return examples

    def train(
        self,
        examples: Sequence[Tuple[str, List[DocumentPath], int]],
        verbose: bool = False,
    ) -> List[float]:
        """Train the head listwise; returns per-epoch mean losses."""
        ranker = self.ranker
        # feature extraction is the expensive part: cache per example
        cached = [
            (ranker._feature_matrix(question, paths), gold)
            for question, paths, gold in examples
        ]

        def example_loss(index: int) -> Tensor:
            features, gold = cached[index]
            logits = ranker.head(Tensor(features)).reshape(-1)
            return -logits.softmax(axis=-1).log()[gold]

        return train_epochs(
            Adam(ranker.head.parameters(), lr=LR),
            len(cached),
            example_loss,
            epochs=ranker.config.epochs,
            rng=self._rng,
            name="ranker",
            verbose=verbose,
        )
