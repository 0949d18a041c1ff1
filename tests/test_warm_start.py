"""Warm-start regression suite: loading persisted embeddings must cost
zero encoder calls and retrieve identically to the system that saved
them. Guards against the old behaviour where ``TripleFactRetrieval.load``
unconditionally re-encoded the whole corpus.
"""

import numpy as np
import pytest

from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.ingest import EmbeddingStore
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval
from repro.pipeline.multihop import MultiHopConfig
from repro.pipeline.path_ranker import PathRankerConfig
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.retriever.trainer import TrainerConfig
from repro.serve.service import RetrievalService, ServiceConfig
from repro.updater.updater import UpdaterConfig


@pytest.fixture
def encode_calls(monkeypatch):
    """Count every MiniBertEncoder.encode_numpy invocation (any instance)."""
    calls = []
    original = MiniBertEncoder.encode_numpy

    def counting(self, texts, *args, **kwargs):
        calls.append(len(list(texts)))
        return original(self, texts, *args, **kwargs)

    monkeypatch.setattr(MiniBertEncoder, "encode_numpy", counting)
    return calls


class TestRetrieverWarmStart:
    def test_attach_then_refresh_encodes_nothing(
        self, encoder, store, retriever, tmp_path, encode_calls
    ):
        retriever.export_embeddings().save(tmp_path)
        warm = SingleRetriever(encoder, store)
        adopted = warm.attach_embeddings(EmbeddingStore.open(tmp_path))
        assert adopted == store.total_triples()
        encode_calls.clear()
        assert warm.refresh_embeddings() == 0
        assert encode_calls == []

    def test_warm_retrieval_matches_original(
        self, encoder, store, retriever, tmp_path
    ):
        retriever.export_embeddings().save(tmp_path)
        warm = SingleRetriever(encoder, store)
        warm.attach_embeddings(EmbeddingStore.open(tmp_path))
        warm.refresh_embeddings()
        question = "Which club was founded in the same city?"
        original = [
            (r.doc_id, r.score) for r in retriever.retrieve(question, k=5)
        ]
        restored = [
            (r.doc_id, r.score) for r in warm.retrieve(question, k=5)
        ]
        assert [d for d, _ in original] == [d for d, _ in restored]
        assert np.allclose(
            [s for _, s in original], [s for _, s in restored]
        )

    def test_detach_then_refresh_reencodes(
        self, encoder, store, retriever, tmp_path, encode_calls
    ):
        retriever.export_embeddings().save(tmp_path)
        warm = SingleRetriever(encoder, store)
        warm.attach_embeddings(EmbeddingStore.open(tmp_path))
        warm.detach_embeddings()
        encode_calls.clear()
        assert warm.refresh_embeddings() == store.total_triples()
        assert sum(encode_calls) == store.total_triples()

    def test_generation_follows_the_held_store(
        self, encoder, corpus, store, retriever, tmp_path
    ):
        retriever.export_embeddings().save(tmp_path)
        retriever.export_embeddings().save(tmp_path)  # generation 2
        edited = TripleStore(corpus)
        for doc_id in store.doc_ids():
            edited.put(doc_id, store.triples(doc_id))
        warm = SingleRetriever(encoder, edited)
        assert warm.store_generation is None  # nothing held yet
        warm.attach_embeddings(EmbeddingStore.open(tmp_path))
        assert warm.refresh_embeddings() == 0
        assert warm.store_generation == 2  # clean warm start: as published
        # a dirty refresh re-encodes rows: the matrices no longer equal
        # any published generation, and the retriever must not claim one
        assert len(edited.triples(0)) >= 2
        edited.put(0, edited.triples(0)[:1])
        assert warm.refresh_embeddings() == 1
        assert warm.store_generation == 0
        warm.export_embeddings().save(tmp_path)
        assert warm.store_generation == 3  # published again


class TestFrameworkWarmStart:
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

    def test_load_makes_zero_encoder_calls(
        self, trained, corpus, tmp_path, encode_calls
    ):
        system, config = trained
        system.save(tmp_path / "model")
        encode_calls.clear()
        TripleFactRetrieval.load(tmp_path / "model", corpus, config=config)
        assert encode_calls == []

    def test_warm_load_retrieves_identically(
        self, trained, corpus, hotpot, tmp_path
    ):
        system, config = trained
        system.save(tmp_path / "model")
        restored = TripleFactRetrieval.load(
            tmp_path / "model", corpus, config=config
        )
        question = hotpot.test[0].text
        original = [r.doc_id for r in system.retrieve_documents(question, k=5)]
        loaded = [r.doc_id for r in restored.retrieve_documents(question, k=5)]
        assert original == loaded

    def test_missing_embeddings_falls_back_to_reencode(
        self, trained, corpus, hotpot, tmp_path, encode_calls
    ):
        system, config = trained
        system.save(tmp_path / "model")
        for artifact in (tmp_path / "model" / "embeddings").iterdir():
            artifact.unlink()
        encode_calls.clear()
        restored = TripleFactRetrieval.load(
            tmp_path / "model", corpus, config=config
        )
        assert sum(encode_calls) > 0  # cold path: full re-encode
        question = hotpot.test[0].text
        original = [r.doc_id for r in system.retrieve_documents(question, k=5)]
        loaded = [r.doc_id for r in restored.retrieve_documents(question, k=5)]
        assert original == loaded

    def test_tampered_manifest_falls_back_to_reencode(
        self, trained, corpus, tmp_path, encode_calls
    ):
        system, config = trained
        system.save(tmp_path / "model")
        manifest = tmp_path / "model" / "embeddings" / "manifest.json"
        manifest.write_text("{corrupt")
        encode_calls.clear()
        TripleFactRetrieval.load(tmp_path / "model", corpus, config=config)
        assert sum(encode_calls) > 0


class TestServeWarmStart:
    def test_start_builds_matrices(self, encoder, store):
        retriever = SingleRetriever(encoder, store)
        service = RetrievalService(retriever, config=ServiceConfig())
        assert retriever.shard_plan is None
        with service:
            assert retriever.shard_plan is not None

    def test_attached_retriever_serves_without_encoding(
        self, encoder, store, retriever, tmp_path, encode_calls
    ):
        retriever.export_embeddings().save(tmp_path)
        warm = SingleRetriever(encoder, store)
        warm.attach_embeddings(EmbeddingStore.open(tmp_path))
        encode_calls.clear()
        with RetrievalService(warm, config=ServiceConfig()):
            pass  # warm start happens inside start()
        assert encode_calls == []  # matrices built from the memmap alone