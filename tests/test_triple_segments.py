"""The triple file: per-document segments that carry their own hashes.

A loaded store answers ``row_hash`` / ``n_triples`` / ``save`` from the
segment bytes and parses a document only when its triples are asked for;
that is also where a segment is held to the hash and count it carries.
"""

import dataclasses
import sys
import threading

import pytest
from reference import UNREADABLE_TRIPLE_FILES, unreadable_triple_files

from repro.ingest import STORE_NAME, triples_fingerprint
from repro.retriever.store import TripleStore, TripleStoreError


@pytest.fixture()
def saved(store, tmp_path):
    path = tmp_path / STORE_NAME
    store.save(path)
    return path


def _rewrite_field(path, doc_id, field, value):
    """Overwrite one tab-separated header field of ``doc_id``'s segment."""
    lines = path.read_bytes().split(b"\n")
    for index, line in enumerate(lines):
        fields = line.split(b"\t", 4)
        if index and fields[0] == b"%d" % doc_id:
            fields[field] = value
            lines[index] = b"\t".join(fields)
    path.write_bytes(b"\n".join(lines))


class TestCarriedSegments:
    def test_header_answers_without_a_parse(self, store, corpus, saved, parsed):
        loaded = TripleStore.load(saved, corpus)
        assert loaded.doc_ids() == store.doc_ids()
        assert loaded.total_triples() == store.total_triples()
        for doc_id in store.doc_ids():
            assert loaded.n_triples(doc_id) == len(store.triples(doc_id))
            assert loaded.row_hash(doc_id) == triples_fingerprint(
                store.flattened(doc_id)
            )
        assert parsed == []

    def test_save_of_a_loaded_store_parses_nothing(
        self, corpus, saved, tmp_path, parsed
    ):
        again = tmp_path / "again"
        TripleStore.load(saved, corpus).save(again)
        assert again.read_bytes() == saved.read_bytes()
        assert parsed == []

    def test_a_document_is_parsed_once_and_only_when_asked(
        self, store, corpus, saved, parsed
    ):
        loaded = TripleStore.load(saved, corpus)
        assert loaded.triples(3) == store.triples(3)
        assert loaded.flattened(3) == store.flattened(3)
        assert parsed == [3]

    def test_adopted_segment_stays_bytes(self, corpus, saved, tmp_path, parsed):
        prior = TripleStore.load(saved, corpus)
        taken = TripleStore(corpus)
        for doc_id in prior.doc_ids():
            taken.adopt(prior, doc_id)
        taken.save(tmp_path / "taken")
        assert (tmp_path / "taken").read_bytes() == saved.read_bytes()
        assert parsed == []

    def test_unknown_document_has_no_fingerprint_and_no_triples(
        self, corpus, saved
    ):
        loaded = TripleStore.load(saved, corpus)
        assert loaded.fingerprint(10**6) is None
        assert loaded.triples(10**6) == []

    def test_metadata_only_change_keeps_the_row_hash(self, store, corpus):
        edited = TripleStore(corpus)
        edited.put(
            0,
            [
                dataclasses.replace(t, source="elsewhere", confidence=0.5)
                for t in store.triples(0)
            ],
        )
        assert edited.row_hash(0) == store.row_hash(0)


class TestLazyVerification:
    @pytest.mark.parametrize(
        "field, value",
        [(2, b"0" * 64), (3, b"1"), (4, b'[["a", "b"]]'), (4, b"[7]")],
        ids=["hash", "count", "short-triple", "wrong-type"],
    )
    def test_bad_segment_raises_when_and_only_when_materialised(
        self, store, corpus, saved, tmp_path, field, value
    ):
        victim = next(d for d in store.doc_ids() if len(store.triples(d)) > 1)
        _rewrite_field(saved, victim, field, value)
        loaded = TripleStore.load(saved, corpus)  # headers alone: fine
        loaded.n_triples(victim), loaded.row_hash(victim)
        loaded.save(tmp_path / "carried")  # bytes travel unexamined
        other = next(d for d in store.doc_ids() if d != victim)
        assert loaded.flattened(other) == store.flattened(other)
        with pytest.raises(TripleStoreError, match=f"document {victim}"):
            loaded.triples(victim)
        with pytest.raises(TripleStoreError):  # not cached as good
            loaded.flattened(victim)

    def test_threads_materialising_one_document_see_equal_lists(
        self, store, corpus, saved
    ):
        n_threads = 8
        doc_ids = store.doc_ids()[:40]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                loaded = TripleStore.load(saved, corpus)
                barrier = threading.Barrier(n_threads)
                seen = [None] * n_threads

                def read(slot):
                    barrier.wait(timeout=10.0)
                    seen[slot] = [loaded.triples(d) for d in doc_ids]

                threads = [
                    threading.Thread(target=read, args=(slot,))
                    for slot in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                expected = [store.triples(d) for d in doc_ids]
                assert all(lists == expected for lists in seen)
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", UNREADABLE_TRIPLE_FILES)
def test_unreadable_file_is_one_typed_error(store, corpus, saved, name):
    saved.write_bytes(unreadable_triple_files(saved.read_bytes())[name])
    with pytest.raises(TripleStoreError):
        TripleStore.load(saved, corpus)


def test_a_version_1_file_is_named_as_one(corpus, saved):
    saved.write_bytes(unreadable_triple_files(saved.read_bytes())["version-1"])
    with pytest.raises(TripleStoreError, match="format version 2"):
        TripleStore.load(saved, corpus)


def test_missing_file_is_an_oserror_not_a_store_error(corpus, tmp_path):
    with pytest.raises(FileNotFoundError):
        TripleStore.load(tmp_path / STORE_NAME, corpus)
