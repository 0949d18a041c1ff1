"""Parity and regression tests for the vectorized retrieval path.

The one scorer (`retrieve_batch`) must be indistinguishable — ranking,
scores, explaining triples — from the document-by-document reference
loop kept test-side as `reference.retrieve_by_vector_legacy`.
"""

import numpy as np
import pytest
from reference import cosine_matrix, retrieve_by_vector_legacy

from repro.perf import COUNTERS
from repro.retriever.strategies import MEAN, ONE_FACT, TOP_K, ScoreStrategy

STRATEGIES = [
    pytest.param(ScoreStrategy(ONE_FACT), id="one_fact"),
    pytest.param(ScoreStrategy(TOP_K, k=2), id="top2"),
    pytest.param(ScoreStrategy(TOP_K, k=5), id="top5"),
    pytest.param(ScoreStrategy(MEAN), id="mean"),
]

QUESTIONS = [
    "when was the club founded",
    "which band recorded the film soundtrack",
    "who played for the team that won the award",
]


def _assert_same_results(fast, slow):
    assert [r.doc_id for r in fast] == [r.doc_id for r in slow]
    assert [r.title for r in fast] == [r.title for r in slow]
    np.testing.assert_allclose(
        [r.score for r in fast], [r.score for r in slow], atol=1e-6
    )
    for a, b in zip(fast, slow):
        assert (a.matched_triple is None) == (b.matched_triple is None)
        if a.matched_triple is not None:
            assert a.matched_triple == b.matched_triple


class TestVectorizedParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("question", QUESTIONS)
    def test_full_corpus_parity(self, retriever, strategy, question):
        vec = retriever.encode_question(question)
        fast = retriever.retrieve_batch(vec[None], k=10, strategy=strategy)[0]
        slow = retrieve_by_vector_legacy(
            retriever, vec, k=10, strategy=strategy
        )
        _assert_same_results(fast, slow)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_triple_scores_parity(self, retriever, strategy):
        vec = retriever.encode_question(QUESTIONS[0])
        fast = retriever.retrieve_batch(
            vec[None], k=5, strategy=strategy, keep_triple_scores=True
        )[0]
        slow = retrieve_by_vector_legacy(
            retriever, vec, k=5, strategy=strategy, keep_triple_scores=True
        )
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(
                a.triple_scores, b.triple_scores, atol=1e-6
            )

    def test_retrieve_uses_vectorized_path(self, retriever):
        """`retrieve` and the legacy loop agree end to end."""
        results = retriever.retrieve(QUESTIONS[0], k=6)
        legacy = retrieve_by_vector_legacy(
            retriever, retriever.encode_question(QUESTIONS[0]), k=6
        )
        _assert_same_results(results, legacy)


class TestRetrieveBatch:
    def test_batch_matches_single_queries(self, retriever):
        vecs = np.stack(
            [retriever.encode_question(q) for q in QUESTIONS]
        )
        batched = retriever.retrieve_batch(vecs, k=5)
        assert len(batched) == len(QUESTIONS)
        for row, vec in zip(batched, vecs):
            _assert_same_results(
                row, retriever.retrieve_batch(vec[None], k=5)[0]
            )

    def test_batch_is_one_matmul(self, retriever):
        vecs = np.stack(
            [retriever.encode_question(q) for q in QUESTIONS]
        )
        before = COUNTERS.matmul_calls
        retriever.retrieve_batch(vecs, k=5)
        assert COUNTERS.matmul_calls == before + 1

    def test_empty_batch(self, retriever):
        out = retriever.retrieve_batch(
            np.zeros((0, retriever.encoder.config.dim)), k=5
        )
        assert out == []

    def test_k_zero_returns_empty(self, retriever):
        vec = retriever.encode_question(QUESTIONS[0])
        assert retriever.retrieve_batch(vec[None], k=0) == [[]]
        assert retrieve_by_vector_legacy(retriever, vec, k=0) == []


class TestTripleScores:
    def test_triple_scores_match_doc_embeddings(self, retriever):
        """`triple_scores` (fast path) equals cosine against the cached
        per-document matrix."""
        vec = retriever.encode_question(QUESTIONS[2])
        for doc_id in retriever.store.doc_ids()[:5]:
            fast = retriever.triple_scores(vec, doc_id)
            slow = cosine_matrix(vec, retriever.doc_embeddings(doc_id))
            np.testing.assert_allclose(fast, slow, atol=1e-6)

    def test_unknown_doc_gives_empty(self, retriever):
        vec = retriever.encode_question(QUESTIONS[0])
        scores = retriever.triple_scores(vec, 10_000)
        assert scores.shape == (0,)
        assert scores.dtype == retriever.doc_embeddings(10_000).dtype
