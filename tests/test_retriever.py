"""Unit tests for the single retriever: store, strategies, retrieval,
negative mining and training plumbing."""

import numpy as np
import pytest
from reference import aggregate, cosine_matrix, matched_index, score_documents

from repro.retriever.negatives import (
    build_triple_field_index,
    mine_training_examples,
)
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.strategies import (
    MEAN,
    ONE_FACT,
    TOP_K,
    ScoreStrategy,
)
from repro.retriever.trainer import RetrieverTrainer, TrainerConfig


class TestTripleStore:
    def test_every_document_has_triples(self, store, corpus):
        for document in corpus:
            assert store.triples(document.doc_id), document.title

    def test_respects_threshold(self, store):
        for doc_id in store.doc_ids():
            assert len(store.triples(doc_id)) <= 40

    def test_flattened_matches_triples(self, store):
        doc_id = store.doc_ids()[0]
        assert len(store.flattened(doc_id)) == len(store.triples(doc_id))

    def test_field_text_joins_triples(self, store):
        doc_id = store.doc_ids()[0]
        text = store.field_text(doc_id)
        for flattened in store.flattened(doc_id):
            assert flattened in text

    def test_unknown_doc_empty(self, store):
        assert store.triples(10_000) == []

    def test_title_subject_dominates(self, store, corpus):
        # noise pruning keeps title-entity triples
        document = next(d for d in corpus if d.entity.kind == "person")
        triples = store.triples(document.doc_id)
        title_triples = [t for t in triples if document.title in t.subject]
        assert len(title_triples) >= len(triples) / 2


class TestStrategies:
    SCORES = np.array([0.1, 0.9, 0.5])

    def test_one_fact_is_max(self):
        assert aggregate(ScoreStrategy(ONE_FACT), self.SCORES) == 0.9

    def test_top_k_mean(self):
        assert aggregate(ScoreStrategy(TOP_K, k=2), self.SCORES) == pytest.approx(0.7)

    def test_top_k_larger_than_size(self):
        assert aggregate(ScoreStrategy(TOP_K, k=10), self.SCORES) == pytest.approx(
            self.SCORES.mean()
        )

    def test_mean(self):
        assert aggregate(ScoreStrategy(MEAN), self.SCORES) == pytest.approx(0.5)

    def test_empty_scores(self):
        assert aggregate(ScoreStrategy(ONE_FACT), np.zeros(0)) == -1.0
        assert matched_index(np.zeros(0)) == -1

    def test_matched_index(self):
        assert matched_index(self.SCORES) == 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            aggregate(ScoreStrategy("bogus"), self.SCORES)

    def test_cosine_matrix(self):
        query = np.array([1.0, 0.0])
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(
            cosine_matrix(query, matrix), [1.0, 0.0, -1.0], atol=1e-6
        )

    def test_score_documents(self):
        query = np.array([1.0, 0.0])
        docs = {0: np.array([[1.0, 0.0]]), 1: np.array([[0.0, 1.0]])}
        scores = score_documents(query, docs, ScoreStrategy(ONE_FACT))
        assert scores[0] > scores[1]


class TestSingleRetriever:
    def test_retrieve_returns_k(self, retriever):
        results = retriever.retrieve("football club founded", k=5)
        assert len(results) == 5

    def test_scores_sorted(self, retriever):
        results = retriever.retrieve("the band was formed", k=10)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_matched_triple_is_explanation(self, retriever, corpus):
        document = next(d for d in corpus if d.entity.kind == "club")
        results = retriever.retrieve(
            f"when was {document.title} founded", k=3
        )
        top = results[0]
        assert top.matched_triple is not None
        assert "matched triple" in top.explain()

    def test_title_match_ranks_high(self, retriever, corpus):
        document = corpus[0]
        results = retriever.retrieve(document.title, k=5)
        assert document.title in [r.title for r in results]

    def test_keep_triple_scores(self, retriever):
        results = retriever.retrieve("club", k=2, keep_triple_scores=True)
        assert results[0].triple_scores is not None

    def test_retrieve_by_vector_matches_retrieve(self, retriever):
        question = "when was the club founded"
        by_text = retriever.retrieve(question, k=5)
        by_vector = retriever.retrieve_batch(
            retriever.encode_question(question)[None], k=5
        )[0]
        assert [r.doc_id for r in by_text] == [r.doc_id for r in by_vector]


class TestNegativeMining:
    def test_examples_have_9_negatives(self, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:20], corpus, store)
        assert examples
        for example in examples:
            assert len(example.negative_doc_ids) <= 9
            assert example.positive_doc_id not in example.negative_doc_ids

    def test_positive_is_gold(self, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:20], corpus, store)
        by_qid = {q.qid: q for q in hotpot.train}
        for example in examples:
            question = by_qid[example.qid]
            gold_ids = {
                corpus.by_title(t).doc_id for t in question.gold_titles
            }
            assert example.positive_doc_id in gold_ids

    def test_negatives_exclude_all_golds(self, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:20], corpus, store)
        by_qid = {q.qid: q for q in hotpot.train}
        for example in examples:
            question = by_qid[example.qid]
            gold_ids = {
                corpus.by_title(t).doc_id for t in question.gold_titles
            }
            assert not gold_ids & set(example.negative_doc_ids)

    def test_index_reuse(self, hotpot, corpus, store):
        index = build_triple_field_index(store)
        examples = mine_training_examples(
            hotpot.train[:5], corpus, store, index=index
        )
        assert examples


class TestRetrieverTraining:
    def test_one_epoch_runs_and_improves_loss(self, retriever, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:12], corpus, store)
        trainer = RetrieverTrainer(
            retriever, TrainerConfig(epochs=2, lr=1e-3)
        )
        losses = trainer.train(examples)
        assert len(losses) == 2
        assert losses[1] <= losses[0] * 1.2  # allow noise, forbid blow-up

    def test_bce_mode_runs(self, retriever, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:4], corpus, store)
        trainer = RetrieverTrainer(
            retriever, TrainerConfig(epochs=1, lr=1e-4, loss="bce")
        )
        losses = trainer.train(examples)
        assert len(losses) == 1 and np.isfinite(losses[0])

    def test_triple_selection_cap(self, retriever, hotpot):
        trainer = RetrieverTrainer(
            retriever, TrainerConfig(max_triples_per_doc=2)
        )
        doc_id = retriever.store.doc_ids()[0]
        selected = trainer._select_triples("any question", doc_id)
        assert len(selected) <= 2
