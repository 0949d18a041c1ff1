"""Unit tests for the inverted index, analyzer and BM25."""

import pytest

from repro.index import bm25
from repro.index.analyzer import analyze
from repro.index.inverted import InvertedIndex
from repro.index.postings import Field

DOCS = {
    0: "the football club was founded in 1885",
    1: "the band was formed in 1991 in Boston",
    2: "the city lies on the river and has a large port",
    3: "the football club plays its home games in the city",
}


def _index():
    index = InvertedIndex()
    for doc_id, text in DOCS.items():
        index.add_document(doc_id, {"text": text})
    return index


class TestAnalyzer:
    def test_stems_and_drops_stopwords(self):
        terms = analyze("The clubs were founded.")
        assert "club" in terms
        assert "the" not in terms and "." not in terms


class TestField:
    def test_statistics(self):
        field = Field("text")
        field.add(0, ["a", "b", "a"])
        field.add(1, ["b"])
        assert field.doc_count == 2
        assert field.doc_length(0) == 3
        assert field.average_length == 2.0
        assert field.doc_freq("a") == 1
        assert field.doc_freq("b") == 2
        assert field.postings("a")[0].term_freq == 2

    def test_double_add_rejected(self):
        field = Field("text")
        field.add(0, ["a"])
        with pytest.raises(ValueError):
            field.add(0, ["b"])

    def test_unknown_term(self):
        field = Field("text")
        assert field.postings("zzz") == []
        assert field.doc_freq("zzz") == 0


class TestBM25:
    def test_exact_match_ranks_first(self):
        index = _index()
        hits = index.search("when was the football club founded", "text", k=4)
        assert hits[0].doc_id == 0

    def test_scores_positive_and_sorted(self):
        index = _index()
        hits = index.search("football club", "text", k=4)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(s > 0 for s in scores)

    def test_idf_zero_for_unseen(self):
        field = Field("text")
        field.add(0, ["a"])
        assert bm25.idf(field, "zzz") == 0.0

    def test_rare_terms_weighted_higher(self):
        field = Field("text")
        field.add(0, ["rare", "common"])
        field.add(1, ["common"])
        field.add(2, ["common"])
        assert bm25.idf(field, "rare") > bm25.idf(field, "common")


class TestInvertedIndex:
    def test_multi_field(self):
        index = InvertedIndex()
        index.add_document(0, {"text": "alpha beta", "triples": "alpha gamma"})
        assert index.search("gamma", field="triples", k=10)[0].doc_id == 0
        assert index.search("gamma", field="text", k=10) == []

    def test_unknown_field_raises(self):
        index = _index()
        with pytest.raises(KeyError):
            index.search("x", field="nope", k=10)

    def test_doc_count(self):
        assert _index().doc_count == len(DOCS)

    def test_k_limits_results(self):
        index = _index()
        assert len(index.search("the club city football", "text", k=2)) == 2
