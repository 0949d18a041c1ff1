"""Unit tests for the question updater: golden supervision, question
composition and the learned clue selector."""

import numpy as np

from repro.oie.triple import Triple
from repro.updater.golden import ground_clue_index
from repro.updater.question import compose_updated_question
from repro.updater.updater import QuestionUpdater, UpdaterConfig, UpdaterTrainer


class TestComposeUpdatedQuestion:
    def test_appends_novel_tokens(self):
        clue = Triple("Davis", "played for", "Millwall")
        out = compose_updated_question("Which club did Davis play for?", clue)
        assert "Millwall" in out
        assert out.startswith("Which club did Davis play for?")

    def test_deduplicates(self):
        clue = Triple("Davis", "played for", "Millwall")
        question = "When was Millwall founded? Davis played"
        out = compose_updated_question(question, clue)
        assert out.count("Millwall") == 1

    def test_all_duplicate_returns_question(self):
        clue = Triple("Davis", "played", "club")
        question = "davis played club"
        assert compose_updated_question(question, clue) == question


class TestGoldenSupervision:
    def test_ground_clue_prefers_bridge_title(self, corpus, store, hotpot):
        question = next(q for q in hotpot.train if q.is_bridge)
        hop1 = corpus.by_title(question.gold_titles[0])
        hop2 = corpus.by_title(question.gold_titles[1])
        triples = store.triples(hop1.doc_id)
        index = ground_clue_index(triples, hop2)
        assert index is not None
        assert hop2.title.split()[0].lower() in triples[index].flatten().lower()

    def test_ground_clue_empty_triples(self, corpus):
        assert ground_clue_index([], corpus[0]) is None


class TestQuestionUpdater:
    def test_score_shape(self, encoder, store):
        updater = QuestionUpdater(encoder)
        triples = store.triples(store.doc_ids()[0])
        scores = updater.score_triples("some question", triples)
        assert scores.shape == (len(triples),)

    def test_select_clue(self, encoder, store):
        updater = QuestionUpdater(encoder)
        triples = store.triples(store.doc_ids()[0])
        index, clue = updater.select_clue("some question", triples)
        assert triples[index] is clue

    def test_select_clue_empty(self, encoder):
        updater = QuestionUpdater(encoder)
        assert updater.select_clue("q", []) is None


class TestUpdaterTraining:
    def test_build_examples_bridge_only(self, encoder, hotpot, corpus, store):
        updater = QuestionUpdater(encoder)
        trainer = UpdaterTrainer(updater)
        examples = trainer.build_examples(hotpot.train[:30], corpus, store)
        assert examples
        for _question, triples, gold in examples:
            assert 0 <= gold < len(triples)

    def test_training_reduces_loss(self, encoder, hotpot, corpus, store):
        """Training moves the head and never the shared encoder."""
        updater = QuestionUpdater(
            encoder, UpdaterConfig(epochs=3)
        )
        assert updater.head.weight.data.shape == (4, 1)
        trainer = UpdaterTrainer(updater)
        examples = trainer.build_examples(hotpot.train[:15], corpus, store)
        before = [p.data.copy() for p in encoder.model.parameters()]
        losses = trainer.train(examples)
        assert losses[-1] < losses[0]
        assert all(
            np.array_equal(old, p.data)
            for old, p in zip(before, encoder.model.parameters())
        )

    def test_trained_selector_beats_chance(self, encoder, hotpot, corpus, store):
        updater = QuestionUpdater(encoder, UpdaterConfig(epochs=4))
        trainer = UpdaterTrainer(updater)
        examples = trainer.build_examples(hotpot.train[:40], corpus, store)
        trainer.train(examples)
        hits = 0
        chance = 0.0
        for question, triples, gold in examples:
            scores = updater.score_triples(question, triples)
            hits += int(scores.argmax()) == gold
            chance += 1.0 / len(triples)
        assert hits >= chance  # at least random-selection accuracy
