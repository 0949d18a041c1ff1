"""Tests for ``repro.data.stream``: determinism, O(1) access, corpus fit."""

import inspect

import numpy as np
import pytest

from repro.data import Corpus, StreamConfig, document_at, stream_documents
from repro.data.stream import N_CITIES

CFG_100K = StreamConfig(n_docs=100_000, seed=13)


def head(n_docs):
    """The first ``n_docs`` documents of ``CFG_100K``'s stream."""
    return list(stream_documents(StreamConfig(n_docs=n_docs, seed=13)))


class TestStreamDeterminism:
    def test_same_seed_same_docs_at_100k(self):
        """Spot-check the whole 100k range without walking it (O(1) access)."""
        probe_ids = [0, 1, 137, 9_999, 50_000, 99_998, 99_999]
        first = [document_at(CFG_100K, i) for i in probe_ids]
        second = [document_at(CFG_100K, i) for i in probe_ids]
        for a, b in zip(first, second):
            assert a.title == b.title
            assert a.text == b.text
            assert a.links == b.links
            assert [
                (f.relation, f.value_text) for f in a.facts
            ] == [(f.relation, f.value_text) for f in b.facts]

    def test_different_seed_differs(self):
        other = StreamConfig(n_docs=100_000, seed=14)
        same = sum(
            document_at(CFG_100K, i).text == document_at(other, i).text
            for i in range(50)
        )
        assert same < 5

    def test_stream_equals_random_access(self):
        window = head(10)
        assert len(window) == 10
        for offset, doc in enumerate(window):
            direct = document_at(CFG_100K, offset)
            assert doc.doc_id == direct.doc_id == offset
            assert doc.text == direct.text

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            document_at(CFG_100K, 100_000)
        with pytest.raises(IndexError):
            document_at(CFG_100K, -1)


class TestStreamShape:
    def test_stream_is_a_generator(self):
        """O(1) memory: nothing is materialized until iterated."""
        stream = stream_documents(CFG_100K)
        assert inspect.isgenerator(stream)
        first = next(stream)
        assert first.doc_id == 0
        stream.close()

    def test_titles_unique_in_window(self):
        titles = [d.title for d in head(2_000)]
        assert len(set(titles)) == 2_000

    def test_window_builds_a_valid_corpus(self):
        docs = [document_at(CFG_100K, i) for i in range(500, 560)]
        corpus = Corpus(docs)  # unique titles, stable doc ids
        assert len(corpus) == 60
        doc = corpus.by_title(docs[0].title)
        assert doc is docs[0]
        # links point at pool entities mentioned in the text
        for link in doc.links:
            assert link in doc.text

    def test_facts_cover_linked_entities(self):
        doc = document_at(CFG_100K, 42)
        relations = [f.relation for f in doc.facts]
        assert relations == [
            "occupation",
            "born_in",
            "birth_year",
            "plays_for",
        ]
        entity_values = {
            f.value_text for f in doc.facts if f.value_entity is not None
        }
        assert entity_values == set(doc.links)

    def test_pool_entities_are_shared(self):
        """Cities/clubs come from small pools, so links collide across docs."""
        cities = {d.links[0] for d in head(1_000)}
        assert len(cities) <= N_CITIES
        assert len(cities) > 1
