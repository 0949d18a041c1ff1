"""Unit tests for the OIE tools (triple, base parsing, pattern, MinIE,
the one-pass document extraction and its union)."""

import pytest

import repro.oie.union
from repro.data.corpus import Corpus
from repro.ingest import extract_corpus_triples
from repro.oie.base import parse_clause, split_conjuncts, strip_determiners
from repro.oie.minie import minie_triples
from repro.oie.pattern import pattern_triples
from repro.oie.triple import Triple
from repro.oie.union import dedupe_triples, extract_document
from repro.text.coref import resolve_coreferences
from repro.triples.construct import TripleSetConstructor


class TestTriple:
    def test_flatten(self):
        t = Triple("A", "is", "B")
        assert t.flatten() == "A is B"

    def test_flatten_with_extras(self):
        t = Triple("A", "is", "B", extra_objects=("C", "D"))
        assert t.flatten() == "A is B C D"

    def test_content_key_case_insensitive(self):
        a = Triple("A", "Is", "B")
        b = Triple("a", "is", "b")
        assert a.content_key() == b.content_key()

    def test_tokens_lowercased(self):
        assert Triple("The Club", "Won", "It").tokens() == [
            "the", "club", "won", "it",
        ]


class TestParseClause:
    def test_copula(self):
        clause = parse_clause("Millwall Athletic is a football club.")
        assert clause.subject_text == "Millwall Athletic"
        assert clause.verb_text == "is"
        assert clause.is_copula

    def test_verb_group(self):
        clause = parse_clause("The club was founded in 1885.")
        assert clause.verb_text == "was founded"

    def test_prepositional_segments(self):
        clause = parse_clause("Davis played at centre for Millwall.")
        preps = [s.preposition for s in clause.segments]
        assert preps == ["at", "for"]

    def test_no_verb_returns_none(self):
        assert parse_clause("Complete nonsense fragment") is None

    def test_empty_returns_none(self):
        assert parse_clause("") is None

    def test_split_conjuncts(self):
        assert split_conjuncts("a b , c and d".split()) == [
            ["a", "b"], ["c"], ["d"],
        ]

    def test_strip_determiners(self):
        assert strip_determiners(["the", "big", "club"]) == ["big", "club"]
        assert strip_determiners(["also", "the", "club"]) == ["club"]


class TestPatternExtractor:
    def test_maximal_triple(self):
        triples = pattern_triples("Millwall Athletic was founded in 1885.", 0)
        assert any(
            t.predicate == "was founded" and "1885" in t.object for t in triples
        )

    def test_conjunct_noise_cascade(self):
        triples = pattern_triples(
            "Lynd is a Quaker, peace activist and historian.", 0
        )
        noisy = [t for t in triples if t.confidence <= 0.4]
        assert noisy, "expected Fig.3-style noise triples"
        assert any(t.subject != "Lynd" for t in noisy)

    def test_coref_applied_in_document(self):
        triples = extract_document(
            "Davis was a footballer. He played for Millwall.",
            title="Davis",
        ).pattern
        assert any(
            t.subject == "Davis" and "Millwall" in t.object for t in triples
        )


class TestMinIEExtractor:
    def test_minimizes_determiners(self):
        triples = minie_triples(
            "Millwall Athletic is a professional football club.", 0
        )
        assert any(t.object == "professional football club" for t in triples)

    def test_splits_prepositional_attachment(self):
        triples = minie_triples("Davis played at centre forward for Millwall.", 0)
        predicates = {t.predicate for t in triples}
        assert "played at" in predicates and "played for" in predicates

    def test_long_sentence_compact_objects(self):
        triples = minie_triples(
            "Gibson played 17 seasons in Major League Baseball for the Cardinals.",
            0,
        )
        assert all(len(t.object.split()) <= 4 for t in triples)


class TestUnion:
    def test_dedupe(self):
        a = Triple("A", "is", "B", source="x")
        b = Triple("A", "is", "B", source="y")
        assert len(dedupe_triples([a, b])) == 1

    def test_union_has_both_extractors(self):
        triples = extract_document(
            "Millwall Athletic is a football club. It was founded in 1885.",
            title="Millwall Athletic",
            entity_kind="club",
        ).union
        sources = {t.source for t in triples}
        assert "pattern" in sources and "minie" in sources

    def test_union_covers_facts(self, corpus):
        doc = next(d for d in corpus if d.entity.kind == "band")
        triples = extract_document(
            doc.text, title=doc.title, entity_kind="band"
        ).union
        text = " ".join(t.flatten() for t in triples)
        for fact in doc.facts:
            assert fact.value_text in text

    def test_union_is_pattern_then_new_minie_triples(self, corpus):
        for doc in corpus:
            extraction = extract_document(
                doc.text, title=doc.title, entity_kind=doc.entity.kind
            )
            assert extraction.union == dedupe_triples(
                extraction.pattern + extraction.minie
            )

    def test_both_tools_read_the_resolved_sentences(self, corpus):
        for doc in corpus:
            sentences = resolve_coreferences(
                doc.text, title=doc.title, entity_kind=doc.entity.kind
            )
            extraction = extract_document(
                doc.text, title=doc.title, entity_kind=doc.entity.kind
            )
            assert extraction.pattern == [
                t for i, s in enumerate(sentences) for t in pattern_triples(s, i)
            ]
            assert extraction.minie == [
                t for i, s in enumerate(sentences) for t in minie_triples(s, i)
            ]


@pytest.fixture
def coref_calls(monkeypatch):
    """Count the coreference passes of the document extraction."""
    calls = []

    def counting(text, title=None, entity_kind=None):
        calls.append(title)
        return resolve_coreferences(text, title=title, entity_kind=entity_kind)

    monkeypatch.setattr(repro.oie.union, "resolve_coreferences", counting)
    return calls


class TestOneCoreferencePass:
    def test_construct_from_text_resolves_once(self, corpus, coref_calls):
        doc = corpus[0]
        TripleSetConstructor().construct_from_text(
            doc.text, title=doc.title, entity_kind=doc.entity.kind
        )
        assert coref_calls == [doc.title]

    def test_corpus_extraction_resolves_once_per_document(
        self, corpus, coref_calls
    ):
        docs = Corpus(list(corpus)[:3])
        extract_corpus_triples(docs, workers=1)
        assert coref_calls == [d.title for d in docs]
