"""Integration test: the one-call TripleFactRetrieval framework."""

import pytest

from repro.encoder.minibert import EncoderConfig
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
        max_train_questions=30,
        max_ranker_questions=10,
    )
    return TripleFactRetrieval(config).fit(corpus, hotpot)


class TestFramework:
    def test_all_stages_built(self, system):
        assert system.store is not None
        assert system.retriever is not None
        assert system.updater is not None
        assert system.multihop is not None
        assert system.ranker is not None

    def test_retrieve_documents(self, system, hotpot):
        results = system.retrieve_documents(hotpot.test[0].text, k=5)
        assert len(results) == 5
        assert results[0].matched_triple is not None

    def test_retrieve_paths_reranked(self, system, hotpot):
        paths = system.retrieve_paths(hotpot.test[0].text, k=4)
        assert 0 < len(paths) <= 4

    def test_retrieve_paths_base(self, system, hotpot):
        paths = system.retrieve_paths(hotpot.test[0].text, k=4, rerank=False)
        scores = [p.score for p in paths]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("rerank", [True, False])
    def test_batch_matches_single_calls(self, system, hotpot, rerank):
        questions = [q.text for q in hotpot.test[:2]]
        batch = system.retrieve_paths_many(questions, k=4, rerank=rerank)
        singles = [
            system.retrieve_paths(q, k=4, rerank=rerank) for q in questions
        ]
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
            TripleFactRetrieval().retrieve_documents("question")

    def test_explanations_available(self, system, hotpot):
        paths = system.retrieve_paths(hotpot.test[0].text, k=2)
        assert "hop 1" in paths[0].explain()
