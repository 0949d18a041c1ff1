"""Unit tests for the multi-hop pipeline and path ranker."""

import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import TINY_WORLD

from repro.data import World, build_corpus, build_hotpot_dataset
from repro.encoder import EncoderConfig, MiniBertEncoder
from repro.pipeline.multihop import DocumentPath, MultiHopConfig, MultiHopRetriever
from repro.pipeline.path_ranker import PathRanker, PathRankerConfig, PathRankerTrainer
from repro.retriever import SingleRetriever, build_triple_store
from repro.text import Vocab, tokenize
from repro.updater.updater import QuestionUpdater


@pytest.fixture(scope="module")
def multihop(retriever, encoder):
    updater = QuestionUpdater(encoder)
    return MultiHopRetriever(
        retriever, updater, MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=6)
    )


def fixture_ranker_scores():
    """``score_paths`` bytes (hex) for every test question of the fixture
    world, everything built from scratch as the session fixtures build it:
    what a child process under a given hash seed prints."""
    world = World(TINY_WORLD)
    corpus = build_corpus(world)
    hotpot = build_hotpot_dataset(world, corpus, comparison_per_kind=4)
    store = build_triple_store(corpus)
    texts = [d.text for d in corpus] + [q.text for q in hotpot.all_questions]
    encoder = MiniBertEncoder(
        Vocab.from_texts(texts, tokenize),
        EncoderConfig(dim=24, n_layers=1, n_heads=2, max_len=32),
    )
    encoder.fit_idf([store.field_text(d.doc_id) for d in corpus])
    retriever = SingleRetriever(encoder, store)
    multihop = MultiHopRetriever(
        retriever,
        QuestionUpdater(encoder),
        MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=6),
    )
    ranker = PathRanker(retriever)
    questions = [q.text for q in hotpot.test]
    return b"".join(
        ranker.score_paths(question, paths).tobytes()
        for question, paths in zip(
            questions, multihop.retrieve_paths_batch(questions)
        )
    ).hex()


class TestMultiHop:
    def test_paths_returned(self, multihop, hotpot):
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        assert paths
        assert all(len(p.doc_ids) == 2 for p in paths)

    def test_no_self_loops(self, multihop, hotpot):
        for question in hotpot.test[:5]:
            for path in multihop.retrieve_paths_batch([question.text])[0]:
                assert path.doc_ids[0] != path.doc_ids[1]

    def test_paths_unique(self, multihop, hotpot):
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        keys = [p.doc_ids for p in paths]
        assert len(keys) == len(set(keys))

    def test_scores_sorted(self, multihop, hotpot):
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        scores = [p.score for p in paths]
        assert scores == sorted(scores, reverse=True)

    def test_eq8_additive_score(self, multihop, hotpot):
        for path in multihop.retrieve_paths_batch([hotpot.test[0].text])[0]:
            assert path.score == pytest.approx(sum(path.hop_scores))

    def test_k_paths_limit(self, multihop, hotpot):
        paths = multihop.retrieve_paths_batch(
            [hotpot.test[0].text], k_paths=3
        )[0]
        assert len(paths) <= 3

    def test_explain_mentions_hops(self, multihop, hotpot):
        path = multihop.retrieve_paths_batch([hotpot.test[0].text])[0][0]
        text = path.explain()
        assert "hop 1" in text and "hop 2" in text

    def test_updated_question_recorded(self, multihop, hotpot):
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        assert any(p.updated_question for p in paths)


class TestPathRanker:
    def test_score_paths_shape(self, retriever, multihop, hotpot):
        ranker = PathRanker(retriever)
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        scores = ranker.score_paths(hotpot.test[0].text, paths)
        assert scores.shape == (len(paths),)

    def test_rerank_preserves_set(self, retriever, multihop, hotpot):
        ranker = PathRanker(retriever)
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        reranked = ranker.rerank(hotpot.test[0].text, paths)
        assert {p.doc_ids for p in reranked} == {p.doc_ids for p in paths}

    def test_rerank_k_limit(self, retriever, multihop, hotpot):
        ranker = PathRanker(retriever)
        paths = multihop.retrieve_paths_batch([hotpot.test[0].text])[0]
        assert len(ranker.rerank(hotpot.test[0].text, paths, k=2)) == 2

    def test_scores_independent_of_the_hash_seed(self):
        """Title-token IDF overlaps are summed in token order, not in a
        set's hash order, so the features (and the trained head) are the
        same whatever ``PYTHONHASHSEED`` the process runs under."""
        children = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import test_pipeline as t; "
                    "print(t.fixture_ranker_scores())",
                ],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": os.pathsep.join(sys.path),
                },
                stdout=subprocess.PIPE,
                text=True,
            )
            for hash_seed in ("1", "2")
        ]
        outputs = [child.communicate(timeout=120)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_rerank_empty(self, retriever):
        ranker = PathRanker(retriever)
        assert ranker.rerank("q", []) == []

    def test_build_examples_injects_gold(self, retriever, multihop, hotpot, corpus):
        ranker = PathRanker(retriever)
        trainer = PathRankerTrainer(ranker)
        examples = trainer.build_examples(
            hotpot.train[:8], corpus, multihop
        )
        assert examples
        for question_text, paths, gold in examples:
            gold_path = paths[gold]
            question = next(
                q for q in hotpot.train if q.text == question_text
            )
            assert gold_path.title_set == frozenset(question.gold_titles)

    def test_training_reduces_loss(self, retriever, multihop, hotpot, corpus):
        ranker = PathRanker(retriever, PathRankerConfig(epochs=3))
        trainer = PathRankerTrainer(ranker)
        examples = trainer.build_examples(
            hotpot.train[:10], corpus, multihop
        )
        losses = trainer.train(examples)
        assert losses[-1] < losses[0]
