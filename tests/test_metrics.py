"""Unit tests for evaluation metrics."""

import pytest

from repro.eval.metrics import (
    RetrievalScorecard,
    paragraph_exact_match,
    paragraph_recall,
    path_exact_match,
)


class TestParagraphRecall:
    def test_hit(self):
        assert paragraph_recall(["a", "b"], ["b", "z"])

    def test_miss(self):
        assert not paragraph_recall(["a", "b"], ["z"])

    def test_empty_retrieved(self):
        assert not paragraph_recall([], ["a"])


class TestParagraphExactMatch:
    def test_all_found(self):
        assert paragraph_exact_match(["a", "b", "c"], ["a", "c"])

    def test_partial_is_miss(self):
        assert not paragraph_exact_match(["a"], ["a", "b"])

    def test_empty_gold_trivially_true(self):
        assert paragraph_exact_match(["a"], [])


class TestPathExactMatch:
    def test_covering_path(self):
        assert path_exact_match([("a", "b"), ("c", "d")], ["c", "d"])

    def test_reversed_order_counts(self):
        assert path_exact_match([("b", "a")], ["a", "b"])

    def test_split_across_paths_is_miss(self):
        assert not path_exact_match([("a", "x"), ("y", "b")], ["a", "b"])

    def test_no_paths(self):
        assert not path_exact_match([], ["a"])


class TestScorecard:
    def test_rates(self):
        card = RetrievalScorecard()
        card.add("bridge", True)
        card.add("bridge", False)
        card.add("comparison", True)
        assert card.rate("bridge") == 0.5
        assert card.rate("comparison") == 1.0
        assert card.total == pytest.approx(2 / 3)

    def test_empty(self):
        card = RetrievalScorecard()
        assert card.rate("bridge") == 0.0
        assert card.total == 0.0

    def test_count(self):
        card = RetrievalScorecard()
        card.add("bridge", True)
        card.add("bridge", True)
        assert card.count("bridge") == 2
        assert card.count("comparison") == 0
