"""Parity + incremental-invalidation suite for ``repro.ingest``.

Pins the two guarantees the ingestion subsystem makes:

* **Deterministic merge** — extraction fanned out over a worker pool is
  byte-identical to the sequential build, for any worker count.
* **Precise invalidation** — an incremental rebuild re-extracts exactly
  the edited documents and re-encodes exactly the dirty embedding rows;
  everything reused is reused *bitwise*.
"""

import dataclasses
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import UNREADABLE_TRIPLE_FILES, unreadable_triple_files

import repro.ingest.pipeline as ingest_pipeline
from repro.data.corpus import Corpus, Document
from repro.data.world import Entity
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.index.entity_index import EntityIndex
from repro.ingest import (
    EMBEDDINGS_DIR,
    STORE_NAME,
    EmbeddingStore,
    EmbeddingStoreError,
    IngestPipeline,
    extract_corpus_triples,
    store_generation,
)
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore, build_triple_store
from repro.serve import RetrievalService
from repro.text import Vocab, tokenize
from repro.triples.construct import ConstructionConfig

_MINI_DOCS = [
    ("Alpha Club", "club",
     "Alpha Club is a club in Delta City. Alpha Club was founded in 1901."),
    ("Beta Band", "band",
     "Beta Band is a band from Delta City. Beta Band recorded Gamma Album."),
    ("Delta City", "city",
     "Delta City is a city. Delta City hosts Alpha Club and Beta Band."),
    ("Gamma Album", "album",
     "Gamma Album is an album. Gamma Album was recorded by Beta Band."),
    ("Epsilon Hall", "venue",
     "Epsilon Hall is a venue in Delta City. Epsilon Hall opened in 1950."),
]


def _mini_corpus(texts=None):
    """A tiny hand-made corpus; ``texts`` overrides bodies by doc id."""
    texts = texts or {}
    documents = []
    for doc_id, (title, kind, body) in enumerate(_MINI_DOCS):
        documents.append(
            Document(
                doc_id=doc_id,
                title=title,
                text=texts.get(doc_id, body),
                entity=Entity(uid=f"e{doc_id}", name=title, kind=kind),
            )
        )
    return Corpus(documents)


def _mini_encoder(corpus, dim=16, seed=7):
    vocab = Vocab.from_texts([d.text for d in corpus], tokenize)
    return MiniBertEncoder(
        vocab,
        EncoderConfig(dim=dim, n_layers=1, n_heads=2, max_len=24, seed=seed),
    )


def _store_bytes(store, tmp_path, name):
    path = tmp_path / name
    store.save(path)
    return path.read_bytes()


def _segments(cache_dir):
    """doc_id -> raw row bytes of the persisted embedding store."""
    es = EmbeddingStore.open(cache_dir / EMBEDDINGS_DIR)
    return {
        doc_id: np.asarray(es.segment(index)).tobytes()
        for index, doc_id in enumerate(es.doc_ids)
    }


def _extracted_store(corpus, linker, workers):
    """The triple store of one ``extract_corpus_triples`` run."""
    store = TripleStore(corpus)
    triples_by_doc = extract_corpus_triples(corpus, linker=linker, workers=workers)
    for doc_id, triples in triples_by_doc.items():
        store.put(doc_id, triples)
    return store


class TestParallelParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_store_bytes_identical_to_sequential(
        self, corpus, store, tmp_path, workers
    ):
        # ``store`` is ``build_triple_store(corpus)``: one process, the
        # title dictionary as the linker
        parallel = _extracted_store(corpus, EntityIndex(corpus.titles()), workers)
        assert _store_bytes(parallel, tmp_path, f"par{workers}.json") == (
            _store_bytes(store, tmp_path, "seq.json")
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dictionary_only_linker_equals_a_registered_one(
        self, corpus, tmp_path, workers
    ):
        # the linker is the alias dictionary: the extracting process links
        # each document, so registering documents up front changes nothing
        # (it used to be what switched Eq. 1 noise pruning on)
        registered = EntityIndex(corpus.titles())
        for document in corpus:
            registered.add_document(document.doc_id, document.text)
        dictionary = EntityIndex(corpus.titles())
        built = {
            name: _extracted_store(corpus, linker, workers)
            for name, linker in [("reg", registered), ("dict", dictionary)]
        }
        assert _store_bytes(built["dict"], tmp_path, "dict.json") == (
            _store_bytes(built["reg"], tmp_path, "reg.json")
        )

    def test_extract_subset_respects_doc_ids(self, corpus):
        wanted = [3, 1]
        result = extract_corpus_triples(corpus, doc_ids=wanted)
        assert list(result) == sorted(wanted)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pipeline_artifacts_identical_across_worker_counts(
        self, tmp_path, workers
    ):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        IngestPipeline(corpus, workers=1).run(seq_dir, encoder=encoder)
        IngestPipeline(corpus, workers=workers).run(par_dir, encoder=encoder)
        assert (seq_dir / STORE_NAME).read_bytes() == (
            par_dir / STORE_NAME
        ).read_bytes()
        assert _segments(seq_dir) == _segments(par_dir)

    def test_mini_corpus_actually_extracts(self):
        store = build_triple_store(_mini_corpus())
        assert store.total_triples() > 0


def _worker_pids():
    """Pids of this process's live ``multiprocessing`` children."""
    return sorted(child.pid for child in multiprocessing.active_children())


def _reap(pid):
    """Wait until the killed child ``pid`` is gone."""
    for child in multiprocessing.active_children():
        if child.pid == pid:
            child.join(10)


class TestExtractionPool:
    """The process's one extraction pool: reused, re-forked, never stale."""

    def test_two_pipelines_over_the_same_titles_fork_once(self, tmp_path):
        corpus = _mini_corpus()
        IngestPipeline(corpus, workers=1).run(tmp_path / "seq")
        pids = []
        for name in ("first", "second"):
            IngestPipeline(corpus, workers=2).run(tmp_path / name)
            pids.append(_worker_pids())
            assert (tmp_path / name / STORE_NAME).read_bytes() == (
                tmp_path / "seq" / STORE_NAME
            ).read_bytes()
        assert len(pids[0]) == 2 and pids[1] == pids[0]

    @pytest.mark.parametrize(
        "change", ["title", "config", "registered linker", "workers"]
    )
    def test_a_different_key_reforks(self, change):
        corpus = _mini_corpus()
        linker = EntityIndex(corpus.titles())
        extract_corpus_triples(corpus, linker, workers=2)
        before = _worker_pids()
        config, workers = None, 2
        if change == "title":
            documents = list(corpus)
            documents[4] = dataclasses.replace(documents[4], title="Zeta Hall")
            corpus = Corpus(documents)
        linker = EntityIndex(corpus.titles())
        if change == "config":
            config = ConstructionConfig(threshold_size=3)
        elif change == "registered linker":
            linker.add_document(0, corpus[0].text)
        elif change == "workers":
            workers = 3
        got = extract_corpus_triples(corpus, linker, config, workers=workers)
        after = _worker_pids()
        assert len(after) == workers and not set(after) & set(before)
        assert got == extract_corpus_triples(corpus, linker, config, workers=1)

    def test_a_raising_document_raises_its_type_and_poisons_nothing(
        self, corpus, monkeypatch
    ):
        real = ingest_pipeline._construct

        def explode(constructor, payload):
            if payload[0] == 3:
                raise ValueError("document 3 does not construct")
            return real(constructor, payload)

        monkeypatch.setattr(ingest_pipeline, "_construct", explode)
        linker = EntityIndex(corpus.titles())
        for workers in (1, 2):
            with pytest.raises(ValueError, match="document 3"):
                extract_corpus_triples(corpus, linker, workers=workers)
        # the other worker's reply to the failed call was in flight: the
        # next call must not read it
        others = [doc_id for doc_id in range(len(corpus)) if doc_id != 3]
        assert extract_corpus_triples(
            corpus, linker, workers=2, doc_ids=others
        ) == extract_corpus_triples(corpus, linker, workers=1, doc_ids=others)

    def test_a_worker_killed_between_calls_is_reforked(self, corpus):
        linker = EntityIndex(corpus.titles())
        expected = extract_corpus_triples(corpus, linker, workers=1)
        assert extract_corpus_triples(corpus, linker, workers=2) == expected
        before = _worker_pids()
        os.kill(before[0], signal.SIGKILL)
        _reap(before[0])
        assert extract_corpus_triples(corpus, linker, workers=2) == expected
        after = _worker_pids()
        assert len(after) == 2 and not set(after) & set(before)

    def test_a_worker_killed_during_a_call_raises_instead_of_hanging(
        self, corpus, monkeypatch, tmp_path
    ):
        real = ingest_pipeline._construct
        killed = tmp_path / "killed"

        def die_once(constructor, payload):
            if payload[0] == 3 and not killed.exists():
                killed.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(constructor, payload)

        monkeypatch.setattr(ingest_pipeline, "_construct", die_once)
        linker = EntityIndex(corpus.titles())
        with pytest.raises(RuntimeError, match="worker exited"):
            extract_corpus_triples(corpus, linker, workers=2)
        assert killed.exists()
        assert extract_corpus_triples(
            corpus, linker, workers=2
        ) == extract_corpus_triples(corpus, linker, workers=1)


#: ingest with two workers, print the worker pids, then end either the
#: way ``benchmarks/e2e/run.py`` ends a run (kill and join every child)
#: or by plain interpreter exit
_INGEST_THEN_EXIT = """
import multiprocessing, sys, tempfile
from repro.data import World, WorldConfig, build_corpus
from repro.ingest import IngestPipeline

corpus = build_corpus(World(WorldConfig(n_persons=6, seed=3)))
with tempfile.TemporaryDirectory() as out:
    IngestPipeline(corpus, workers=2).run(out)
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
if sys.argv[1] == "kill and join":
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
"""


@pytest.mark.parametrize("ending", ["kill and join", "exit"])
def test_an_ingesting_process_exits_and_leaves_no_worker(ending):
    child = subprocess.run(
        [sys.executable, "-c", _INGEST_THEN_EXIT, ending],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert child.returncode == 0, child.stderr
    pids = [int(pid) for pid in child.stdout.split()]
    assert len(pids) == 2
    assert [pid for pid in pids if Path(f"/proc/{pid}").exists()] == []


def _oracle_ranking(embeddings, encoder, questions, k):
    """Brute-force (doc ids, scores) per question: max cosine per doc."""
    rows = np.asarray(embeddings.matrix, dtype=np.float64)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    vectors = np.asarray(encoder.encode_numpy(questions), dtype=np.float64)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    bounds = [embeddings.bounds(i) for i in range(len(embeddings.doc_ids))]
    ranking = []
    for vector in vectors:
        scores = rows @ vector
        best = sorted(
            (-float(scores[start:stop].max()), int(doc_id))
            for doc_id, (start, stop) in zip(embeddings.doc_ids, bounds)
            if stop > start
        )[:k]
        ranking.append(([doc_id for _, doc_id in best], [-s for s, _ in best]))
    return ranking


def test_refreshes_beside_a_serving_thread_fork_nothing(tmp_path):
    corpus = _mini_corpus()
    encoder = _mini_encoder(corpus)
    warm = IngestPipeline(corpus, workers=2).run(tmp_path, encoder=encoder)
    pids = _worker_pids()
    questions = [
        "Which city hosts Alpha Club?",
        "Who recorded Gamma Album?",
        "When did Epsilon Hall open?",
    ]
    oracle = _oracle_ranking(
        EmbeddingStore.open(tmp_path / EMBEDDINGS_DIR), encoder, questions, 3
    )
    with RetrievalService(warm.retriever) as service:
        for cycle in range(3):
            pending = [service.submit(q, k=3) for q in questions]
            note = f" It was rebuilt in {1990 + cycle}."
            edited = {i: _MINI_DOCS[i][2] + note for i in (1, 4)}
            refreshed = IngestPipeline(_mini_corpus(edited), workers=2).run(
                tmp_path, encoder=encoder
            )
            assert refreshed.stats.docs_extracted == 2
            for request, (doc_ids, scores) in zip(pending, oracle):
                answer = request.result(10)
                assert [r.doc_id for r in answer] == doc_ids
                got = [r.score for r in answer]
                assert np.allclose(got, scores, atol=1e-5)
    assert _worker_pids() == pids


class TestIncrementalInvalidation:
    def _ingest(self, corpus, encoder, cache_dir, **kwargs):
        return IngestPipeline(corpus, **kwargs).run(cache_dir, encoder=encoder)

    def test_clean_rerun_extracts_and_encodes_nothing(self, tmp_path):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        cache = tmp_path / "cache"
        first = self._ingest(corpus, encoder, cache)
        assert first.stats.docs_extracted == len(corpus)
        second = self._ingest(corpus, encoder, cache)
        assert second.stats.docs_extracted == 0
        assert second.stats.docs_reused == len(corpus)
        assert second.stats.rows_encoded == 0
        assert second.stats.rows_reused == second.stats.rows_total

    def test_doc_edit_dirties_exactly_that_doc(self, tmp_path, monkeypatch):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        cache = tmp_path / "cache"
        self._ingest(corpus, encoder, cache)
        before = _segments(cache)
        edited = _mini_corpus(
            texts={1: "Beta Band is a band. Beta Band split up in 1999."}
        )
        # patched on the class: the pipeline builds its own linker
        linked = []
        link = EntityIndex.link
        monkeypatch.setattr(
            EntityIndex, "link",
            lambda self, text: linked.append(text) or link(self, text),
        )
        result = self._ingest(edited, encoder, cache)
        assert result.stats.docs_extracted == 1
        assert result.stats.docs_reused == len(corpus) - 1
        # a refresh reads (links) the body it re-extracts and no other
        assert {d.text for d in edited} & set(linked) == {edited[1].text}
        after = _segments(cache)
        for doc_id in (0, 2, 3, 4):
            assert after[doc_id] == before[doc_id]  # reused bitwise

    def test_config_change_dirties_every_extraction(self, tmp_path):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        cache = tmp_path / "cache"
        self._ingest(corpus, encoder, cache)
        pipeline = IngestPipeline(corpus)
        pipeline.construction = ConstructionConfig(threshold_size=8)
        result = pipeline.run(cache, encoder=encoder)
        assert result.stats.docs_extracted == len(corpus)
        assert result.stats.docs_reused == 0

    def test_encoder_change_dirties_rows_but_not_extraction(self, tmp_path):
        corpus = _mini_corpus()
        cache = tmp_path / "cache"
        first = self._ingest(corpus, _mini_encoder(corpus, seed=7), cache)
        assert first.stats.rows_encoded == first.stats.rows_total
        result = self._ingest(corpus, _mini_encoder(corpus, seed=8), cache)
        assert result.stats.docs_extracted == 0
        assert result.stats.rows_encoded == result.stats.rows_total
        assert result.stats.rows_reused == 0

    def test_non_incremental_rebuilds_everything(self, tmp_path):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        cache = tmp_path / "cache"
        self._ingest(corpus, encoder, cache)
        result = self._ingest(corpus, encoder, cache, incremental=False)
        assert result.stats.docs_extracted == len(corpus)

    def test_corrupt_triple_file_degrades_to_full_rebuild(self, tmp_path):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        cache = tmp_path / "cache"
        self._ingest(corpus, encoder, cache)
        (cache / STORE_NAME).write_text("{not json")
        result = self._ingest(corpus, encoder, cache)
        assert result.stats.docs_extracted == len(corpus)

    _case = itertools.count()

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edits=st.sets(
            st.integers(min_value=0, max_value=len(_MINI_DOCS) - 1),
            max_size=len(_MINI_DOCS),
        )
    )
    def test_any_edit_subset_dirties_exactly_those_docs(self, tmp_path, edits):
        cache = tmp_path / f"case{next(self._case)}"
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        self._ingest(corpus, encoder, cache)
        before = _segments(cache)
        edited = _mini_corpus(
            texts={
                doc_id: _MINI_DOCS[doc_id][2] + " It is widely known."
                for doc_id in edits
            }
        )
        result = self._ingest(edited, encoder, cache)
        assert result.stats.docs_extracted == len(edits)
        assert result.stats.docs_reused == len(corpus) - len(edits)
        after = _segments(cache)
        for doc_id in set(range(len(corpus))) - edits:
            assert after[doc_id] == before[doc_id]
        # reuse is invisible: the refreshed store is the cold one
        cold = tmp_path / f"{cache.name}-cold"
        self._ingest(edited, encoder, cold)
        assert (cache / STORE_NAME).read_bytes() == (
            cold / STORE_NAME
        ).read_bytes()


def _edited(corpus, doc_ids):
    """``corpus`` with the bodies of ``doc_ids`` rewritten."""
    return Corpus(
        [
            dataclasses.replace(d, text=d.text + " It is widely known.")
            if d.doc_id in doc_ids
            else d
            for d in corpus
        ]
    )


class TestUnchangedDocumentsAreNeverParsed:
    """The gain of the segmented file, pinned where it could hollow out."""

    DIRTY = {2, 3, 17, 40}  # two adjacent, two apart

    def test_a_refresh_parses_no_clean_document(
        self, corpus, encoder, tmp_path, parsed
    ):
        IngestPipeline(corpus).run(tmp_path, encoder=encoder)
        again = IngestPipeline(corpus).run(tmp_path, encoder=encoder)
        assert again.stats.docs_extracted == again.stats.rows_encoded == 0
        assert parsed == []  # a clean re-run: not one segment
        before = _segments(tmp_path)
        edited = _edited(corpus, self.DIRTY)
        result = IngestPipeline(edited).run(tmp_path, encoder=encoder)
        assert result.stats.docs_extracted == len(self.DIRTY)
        assert result.stats.docs_reused == len(corpus) - len(self.DIRTY)
        # the dirty documents were re-extracted, never read back; the
        # clean ones went load -> adopt -> refresh -> save as bytes
        assert parsed == []
        cold = IngestPipeline(edited).run(tmp_path / "cold", encoder=encoder)
        assert (tmp_path / STORE_NAME).read_bytes() == (
            tmp_path / "cold" / STORE_NAME
        ).read_bytes()
        rows = _segments(tmp_path)
        for doc_id in set(rows) - self.DIRTY:  # reused rows are bitwise
            assert rows[doc_id] == before[doc_id]
        for doc_id in self.DIRTY:
            assert result.store.triples(doc_id) == cold.store.triples(doc_id)

    def test_a_loaded_store_flattens_exactly_the_dirty_documents(
        self, corpus, encoder, tmp_path, parsed
    ):
        IngestPipeline(corpus).run(tmp_path / "old", encoder=encoder)
        IngestPipeline(_edited(corpus, self.DIRTY)).extract(tmp_path / "new")
        loaded = TripleStore.load(tmp_path / "new" / STORE_NAME, corpus)
        changed = {
            doc_id
            for doc_id in self.DIRTY
            if loaded.row_hash(doc_id)
            != EmbeddingStore.open(tmp_path / "old" / EMBEDDINGS_DIR)
            .row_hashes[doc_id]
        }
        assert changed and parsed == []
        retriever = SingleRetriever(encoder, loaded)
        retriever.attach_embeddings(
            EmbeddingStore.open(tmp_path / "old" / EMBEDDINGS_DIR)
        )
        encoded = retriever.refresh_embeddings()
        assert sorted(parsed) == sorted(changed)
        assert encoded == sum(loaded.n_triples(d) for d in changed)
        del parsed[:]
        warm = SingleRetriever(encoder, loaded)
        warm.attach_embeddings(retriever.export_embeddings())
        assert warm.refresh_embeddings() == 0 and parsed == []

    def test_a_document_missing_from_the_prior_store_is_not_clean(
        self, corpus, tmp_path
    ):
        # the parent called a document clean from its manifest alone and
        # read "not in the prior store" as "has no triples"
        twelve = Corpus(list(corpus)[:12])
        cold = IngestPipeline(twelve).extract(tmp_path)
        lost = next(d for d in cold.store.doc_ids() if cold.store.triples(d))
        holed = TripleStore(twelve)
        holed.construction_fingerprint = cold.store.construction_fingerprint
        for doc_id in cold.store.doc_ids():
            if doc_id != lost:
                holed.adopt(cold.store, doc_id)
        holed.save(tmp_path / STORE_NAME)
        again = IngestPipeline(twelve).extract(tmp_path)
        assert again.stats.docs_extracted == 1
        assert again.store.triples(lost) == cold.store.triples(lost)

    @pytest.mark.parametrize("name", UNREADABLE_TRIPLE_FILES)
    def test_unreadable_prior_store_is_a_cold_rebuild(
        self, corpus, tmp_path, name
    ):
        twelve = Corpus(list(corpus)[:12])
        cold = IngestPipeline(twelve).extract(tmp_path)
        good = (tmp_path / STORE_NAME).read_bytes()
        (tmp_path / STORE_NAME).write_bytes(unreadable_triple_files(good)[name])
        again = IngestPipeline(twelve).extract(tmp_path)
        assert again.stats.docs_extracted == len(twelve)
        assert (tmp_path / STORE_NAME).read_bytes() == good
        assert again.store.total_triples() == cold.store.total_triples()


class TestEmbeddingStore:
    def _build(self, rows=7, dim=4, n_docs=3):
        rng = np.random.RandomState(3)
        matrix = rng.randn(rows, dim)
        offsets = [0, 3, 5][:n_docs]
        return EmbeddingStore(
            matrix=matrix,
            doc_ids=list(range(n_docs)),
            offsets=offsets,
            row_hashes={i: f"h{i}" for i in range(n_docs)},
            encoder_fingerprint="enc-fp",
        )

    def test_roundtrip(self, tmp_path):
        original = self._build()
        original.save(tmp_path)
        loaded = EmbeddingStore.open(tmp_path)
        assert np.array_equal(np.asarray(loaded.matrix), original.matrix)
        assert loaded.doc_ids == original.doc_ids
        assert loaded.offsets == original.offsets
        assert loaded.row_hashes == original.row_hashes
        assert loaded.encoder_fingerprint == "enc-fp"

    def test_segments_cover_matrix(self, tmp_path):
        store = self._build()
        store.save(tmp_path)
        loaded = EmbeddingStore.open(tmp_path)
        stacked = np.concatenate(
            [loaded.segment(i) for i in range(len(loaded.doc_ids))]
        )
        assert np.array_equal(stacked, store.matrix)

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(EmbeddingStoreError):
            EmbeddingStore.open(tmp_path / "nope")

    def test_version_mismatch_raises(self, tmp_path):
        import json

        self._build().save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(EmbeddingStoreError, match="version"):
            EmbeddingStore.open(tmp_path)

    def test_manifest_with_construction_fingerprint_still_opens(self, tmp_path):
        import json

        original = self._build()
        original.save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "construction_fingerprint" not in manifest
        # an older writer recorded it; nothing compares it, so it is ignored
        manifest["construction_fingerprint"] = "con-fp"
        manifest_path.write_text(json.dumps(manifest))
        loaded = EmbeddingStore.open(tmp_path)
        assert loaded.row_hashes == original.row_hashes
        assert loaded.generation == 1

    def test_truncated_data_file_raises(self, tmp_path):
        self._build().save(tmp_path)
        data_file = next(tmp_path.glob("embeddings-*.f64"))
        data_file.write_bytes(data_file.read_bytes()[:-8])
        with pytest.raises(EmbeddingStoreError, match="bytes"):
            EmbeddingStore.open(tmp_path)

    def test_stale_generations_are_collected(self, tmp_path):
        """Two-generation GC: grace window keeps save N-1, collects N-2."""
        generations = []
        for bump in range(3):
            store = self._build()
            store.matrix = store.matrix + float(bump)
            store.save(tmp_path)
            generations.append(
                {p.name for p in tmp_path.glob("embeddings-*.f64")}
            )
        # save 2 keeps generation 1 in its grace window...
        assert len(generations[1]) == 2
        # ...and save 3 collects it: only generations 2 and 3 survive
        assert len(generations[2]) == 2
        assert generations[1] - generations[0] <= generations[2]
        assert not (generations[0] & generations[2])
        loaded = EmbeddingStore.open(tmp_path)
        assert np.array_equal(
            np.asarray(loaded.matrix), self._build().matrix + 2.0
        )

    def test_resave_identical_content_keeps_grace_window(self, tmp_path):
        """Re-saving unchanged content must not shrink the grace window."""
        first = self._build()
        first.save(tmp_path)
        second = self._build()
        second.matrix = second.matrix + 1.0
        second.save(tmp_path)
        second.save(tmp_path)  # same bytes: same content-addressed name
        names = {p.name for p in tmp_path.glob("embeddings-*.f64")}
        assert len(names) == 2  # generation 1 still graced

    def test_open_survives_concurrent_save_gc(self, tmp_path, monkeypatch):
        """A reader holding the previous manifest survives one writer save.

        Regression for the GC race: ``save`` used to unlink every
        non-current generation immediately, so a reader that had just
        parsed the old manifest found its data file gone.
        """
        import repro.ingest.embedding_store as es

        gen1 = self._build()
        gen1.save(tmp_path)
        gen2 = self._build()
        gen2.matrix = gen2.matrix + 1.0

        real_attach = es._attach_matrix
        state = {"raced": False}

        def racing_attach(data_path, rows, dim, mmap):
            # first attach: a writer lands a full save (manifest replace
            # + GC) between our manifest read and the memmap
            if not state["raced"]:
                state["raced"] = True
                gen2.save(tmp_path)
            return real_attach(data_path, rows, dim, mmap)

        monkeypatch.setattr(es, "_attach_matrix", racing_attach)
        loaded = EmbeddingStore.open(tmp_path)
        assert state["raced"]
        # the graced generation-1 file stayed readable through the save
        assert np.array_equal(np.asarray(loaded.matrix), gen1.matrix)

    def test_open_retries_once_when_data_file_vanishes(
        self, tmp_path, monkeypatch
    ):
        """A vanished data file triggers exactly one manifest re-read."""
        import repro.ingest.embedding_store as es

        gen1 = self._build()
        gen1.save(tmp_path)
        gen2 = self._build()
        gen2.matrix = gen2.matrix + 1.0
        gen3 = self._build()
        gen3.matrix = gen3.matrix + 2.0

        real_attach = es._attach_matrix
        state = {"attempts": 0}

        def racing_attach(data_path, rows, dim, mmap):
            state["attempts"] += 1
            if state["attempts"] == 1:
                # two writer generations land: gen1 leaves the grace
                # window and is unlinked, so this attach must fail
                gen2.save(tmp_path)
                gen3.save(tmp_path)
                assert not data_path.exists()
            return real_attach(data_path, rows, dim, mmap)

        monkeypatch.setattr(es, "_attach_matrix", racing_attach)
        loaded = EmbeddingStore.open(tmp_path)
        assert state["attempts"] == 2  # one retry, against the new manifest
        assert np.array_equal(np.asarray(loaded.matrix), gen3.matrix)

    def test_empty_store_roundtrips(self, tmp_path):
        empty = EmbeddingStore(
            matrix=np.zeros((0, 4)),
            doc_ids=[],
            offsets=[],
            row_hashes={},
            encoder_fingerprint="enc-fp",
        )
        empty.save(tmp_path)
        loaded = EmbeddingStore.open(tmp_path)
        assert loaded.matrix.shape == (0, 4)
        assert loaded.doc_ids == []


@pytest.mark.parametrize(
    "reader", ["store_generation", "open", "save", "extract"]
)
def test_non_object_manifest_is_a_corrupt_manifest(tmp_path, reader):
    """Valid JSON that is not an object (a truncated or foreign write)
    reads like any other corrupt manifest, in all four readers."""
    corpus = _mini_corpus()
    first = IngestPipeline(corpus).run(tmp_path, encoder=_mini_encoder(corpus))
    emb_dir = tmp_path / EMBEDDINGS_DIR
    (tmp_path / STORE_NAME).write_text("[]")
    (emb_dir / "manifest.json").write_text("null")
    if reader == "extract":
        again = IngestPipeline(corpus).extract(tmp_path)
        assert again.stats.docs_extracted == len(corpus)  # cold rebuild
    elif reader == "store_generation":
        assert store_generation(tmp_path) is None
    elif reader == "open":
        with pytest.raises(EmbeddingStoreError, match="unreadable manifest"):
            EmbeddingStore.open(emb_dir)
    else:  # the directory can be republished: no previous to grace
        first.embeddings.save(emb_dir)
        assert EmbeddingStore.open(emb_dir).generation == 1


class TestRetrieverIncrementalRefresh:
    def test_full_refresh_matches_legacy_bitwise(self):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        store = build_triple_store(corpus)
        texts = []
        for doc_id in store.doc_ids():
            texts.extend(store.flattened(doc_id))
        expected = encoder.encode_numpy(texts, batch_size=128)
        retriever = SingleRetriever(encoder, store)
        encoded = retriever.refresh_embeddings()
        assert encoded == len(texts)
        assert retriever.export_embeddings().matrix.tobytes() == (
            expected.tobytes()
        )

    def test_second_refresh_encodes_nothing(self):
        corpus = _mini_corpus()
        retriever = SingleRetriever(
            _mini_encoder(corpus), build_triple_store(corpus)
        )
        assert retriever.refresh_embeddings() > 0
        assert retriever.refresh_embeddings() == 0

    def test_force_reencodes_everything(self):
        corpus = _mini_corpus()
        retriever = SingleRetriever(
            _mini_encoder(corpus), build_triple_store(corpus)
        )
        total = retriever.refresh_embeddings()
        retriever.detach_embeddings()  # nothing held: nothing to reuse
        assert retriever.refresh_embeddings() == total

    def test_store_edit_reencodes_only_that_doc(self):
        corpus = _mini_corpus()
        encoder = _mini_encoder(corpus)
        store = build_triple_store(corpus)
        retriever = SingleRetriever(encoder, store)
        retriever.refresh_embeddings()
        assert len(store.triples(0)) >= 2  # truncation below must dirty it
        kept = {
            doc_id: retriever.doc_embeddings(doc_id).copy()
            for doc_id in store.doc_ids()
            if doc_id != 0
        }
        store.put(0, store.triples(0)[:1])
        encoded = retriever.refresh_embeddings()
        assert encoded == 1
        for doc_id, previous in kept.items():
            assert retriever.doc_embeddings(doc_id).tobytes() == (
                previous.tobytes()
            )

    def test_run_copies_equal_a_per_document_assembly(
        self, store, corpus, encoder, monkeypatch
    ):
        edited = TripleStore(corpus)
        for doc_id in store.doc_ids():
            edited.put(doc_id, store.triples(doc_id))
        retriever = SingleRetriever(encoder, edited)
        retriever.refresh_embeddings()
        old = {d: retriever.doc_embeddings(d).copy() for d in store.doc_ids()}
        last = store.doc_ids()[-1]
        dirty = [0, 7, 8, 20, last]  # both ends, an adjacent pair, an emptied
        for doc_id in dirty:
            edited.put(doc_id, store.triples(doc_id)[::-1][:-1])
        edited.put(20, [])
        calls = []
        real = type(encoder).encode_numpy

        def spy(self, texts, **kwargs):
            calls.append(real(self, texts, **kwargs))
            return calls[-1]

        # on the class: undoing an instance patch leaves a bound method
        # in the session encoder's ``__dict__``
        monkeypatch.setattr(type(encoder), "encode_numpy", spy)
        encoded = retriever.refresh_embeddings()
        assert len(calls) == 1 and encoded == len(calls[0])
        pieces, cursor = [], 0
        for doc_id in store.doc_ids():
            if doc_id in dirty:
                n_rows = edited.n_triples(doc_id)
                pieces.append(calls[0][cursor : cursor + n_rows])
                cursor += n_rows
            else:
                pieces.append(old[doc_id])
        held = retriever.export_embeddings()
        expected = np.concatenate(pieces).astype(held.matrix.dtype)
        assert held.matrix.tobytes() == expected.tobytes()
        assert held.offsets == list(
            np.cumsum([0] + [len(piece) for piece in pieces[:-1]])
        )

    def test_attach_rejects_wrong_dim(self, tmp_path):
        corpus = _mini_corpus()
        retriever = SingleRetriever(
            _mini_encoder(corpus, dim=16), build_triple_store(corpus)
        )
        wrong = EmbeddingStore(
            matrix=np.zeros((2, 8)),
            doc_ids=[0],
            offsets=[0],
            row_hashes={0: "x"},
            encoder_fingerprint="fp",
        )
        assert retriever.attach_embeddings(wrong) == 0
        assert retriever.store_generation is None  # nothing held
