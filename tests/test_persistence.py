"""Round-trip tests for triple-store and full-system persistence."""

import numpy as np
import pytest
from reference import unreadable_triple_files

from repro.encoder.minibert import EncoderConfig
from repro.ingest import STORE_NAME
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval
from repro.pipeline.multihop import MultiHopConfig
from repro.pipeline.path_ranker import PathRankerConfig
from repro.retriever.store import TripleStore, TripleStoreError
from repro.retriever.trainer import TrainerConfig
from repro.updater.updater import UpdaterConfig


class TestStorePersistence:
    def test_roundtrip(self, store, corpus, tmp_path):
        path = tmp_path / STORE_NAME
        store.save(path)
        loaded = TripleStore.load(path, corpus)
        assert len(loaded) == len(store)
        for doc_id in store.doc_ids():
            original = [t.flatten() for t in store.triples(doc_id)]
            restored = [t.flatten() for t in loaded.triples(doc_id)]
            assert original == restored

    def test_fusion_triples_survive(self, store, corpus, tmp_path):
        path = tmp_path / STORE_NAME
        store.save(path)
        loaded = TripleStore.load(path, corpus)
        fusions = [
            t
            for doc_id in loaded.doc_ids()
            for t in loaded.triples(doc_id)
            if t.extra_objects
        ]
        original_fusions = [
            t
            for doc_id in store.doc_ids()
            for t in store.triples(doc_id)
            if t.extra_objects
        ]
        assert len(fusions) == len(original_fusions)


class TestSystemPersistence:
    @pytest.fixture(scope="class")
    def trained(self, corpus, hotpot):
        config = FrameworkConfig(
            encoder=EncoderConfig(dim=20, n_layers=1, n_heads=2, max_len=28),
            retriever=TrainerConfig(epochs=1, lr=2e-4),
            updater=UpdaterConfig(epochs=1),
            ranker=PathRankerConfig(epochs=1),
            multihop=MultiHopConfig(k_hop1=3, k_hop2=2, k_paths=4),
            max_train_questions=15,
            max_ranker_questions=6,
        )
        return TripleFactRetrieval(config).fit(corpus, hotpot), config

    def test_save_load_same_retrieval(self, trained, corpus, hotpot, tmp_path):
        system, config = trained
        system.save(tmp_path / "model")
        restored = TripleFactRetrieval.load(
            tmp_path / "model", corpus, config=config
        )
        question = hotpot.test[0].text
        original = [r.doc_id for r in system.retrieve_documents(question, k=5)]
        loaded = [r.doc_id for r in restored.retrieve_documents(question, k=5)]
        assert original == loaded

    def test_save_load_same_paths(self, trained, corpus, hotpot, tmp_path):
        system, config = trained
        system.save(tmp_path / "model2")
        restored = TripleFactRetrieval.load(
            tmp_path / "model2", corpus, config=config
        )
        question = hotpot.test[1].text
        original = [p.doc_ids for p in system.retrieve_paths(question, k=4)]
        loaded = [p.doc_ids for p in restored.retrieve_paths(question, k=4)]
        assert original == loaded

    def test_unreadable_triple_file_is_raised_not_rebuilt(
        self, trained, corpus, tmp_path
    ):
        system, config = trained
        system.save(tmp_path / "model3")
        path = tmp_path / "model3" / STORE_NAME
        for name, body in unreadable_triple_files(path.read_bytes()).items():
            path.write_bytes(body)
            with pytest.raises(TripleStoreError):
                TripleFactRetrieval.load(tmp_path / "model3", corpus, config)
            assert path.read_bytes() == body, name  # and left as found

    def test_unfit_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            TripleFactRetrieval().save(tmp_path / "nope")
