"""Integration test: the one-call TripleFactRetrieval framework."""

import dataclasses

import pytest

from repro.encoder.minibert import EncoderConfig
from repro.ingest.fingerprint import encoder_fingerprint
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval
from repro.pipeline.multihop import MultiHopConfig
from repro.pipeline.path_ranker import PathRankerConfig
from repro.retriever.trainer import TrainerConfig
from repro.updater.updater import UpdaterConfig


@pytest.fixture(scope="module")
def system(corpus, hotpot):
    config = FrameworkConfig(
        encoder=EncoderConfig(dim=24, n_layers=1, n_heads=2, max_len=32),
        retriever=TrainerConfig(epochs=1, lr=2e-4),
        updater=UpdaterConfig(epochs=1),
        ranker=PathRankerConfig(epochs=1),
        multihop=MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=6),
        max_ranker_questions=10,
    )
    dataset = dataclasses.replace(hotpot, train=hotpot.train[:30])
    return TripleFactRetrieval(config).fit(corpus, dataset)


class TestFramework:
    def test_all_stages_built(self, system):
        assert system.store is not None
        assert system.retriever is not None
        assert system.updater is not None
        assert system.multihop is not None
        assert system.ranker is not None
        # no stage after the retriever's refresh steps the shared encoder:
        # the held rows were encoded by the encoder questions go through
        assert system.retriever.export_embeddings().encoder_fingerprint == (
            encoder_fingerprint(system.encoder)
        )

    def test_retrieve_documents(self, system, hotpot):
        results = system.retriever.retrieve_many([hotpot.test[0].text], k=5)[0]
        assert len(results) == 5
        assert results[0].matched_triple is not None

    def test_retrieve_paths_reranked(self, system, hotpot):
        paths = system.retrieve_paths_many([hotpot.test[0].text], k=4)[0]
        assert 0 < len(paths) <= 4

    def test_retrieve_paths_base(self, system, hotpot):
        paths = system.multihop.retrieve_paths_batch(
            [hotpot.test[0].text], k_paths=4
        )[0]
        scores = [p.score for p in paths]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("rerank", [True, False])
    def test_batch_matches_single_calls(self, system, hotpot, rerank):
        """Reranked, and the Eq. 8 order underneath (Table V's base row)."""
        questions = [q.text for q in hotpot.test[:2]]
        if rerank:
            retrieve = system.retrieve_paths_many
        else:
            def retrieve(batch, k):
                return system.multihop.retrieve_paths_batch(batch, k_paths=k)
        batch = retrieve(questions, k=4)
        singles = [retrieve([q], k=4)[0] for q in questions]
        assert len(batch) == 2
        for batch_paths, single_paths in zip(batch, singles):
            assert [p.doc_ids for p in batch_paths] == [
                p.doc_ids for p in single_paths
            ]
            # the default policy scores in float32: batch padding moves
            # a summed two-hop score by a few float32 ulps (~1e-7)
            assert [p.score for p in batch_paths] == pytest.approx(
                [p.score for p in single_paths], abs=1e-5
            )

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            TripleFactRetrieval().retrieve_paths_many(["question"])

    def test_explanations_available(self, system, hotpot):
        paths = system.retrieve_paths_many([hotpot.test[0].text], k=2)[0]
        assert "hop 1" in paths[0].explain()
