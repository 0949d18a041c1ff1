"""Regression tests for the multi-hop beam bookkeeping (ISSUE 1).

* hop-2 off-by-one: the ``k_hop2 + 1`` overfetch exists only to absorb the
  hop-1 document itself; when hop 1 is absent from the hop-2 results the
  beam must still be truncated to exactly ``k_hop2`` survivors,
* ``k_paths=0`` must return zero paths (the ``or``-default swallowed the
  explicit zero),
* the path ranker's ``rerank(k=0)`` had the same falsy-zero bug.
"""

from collections import Counter

import pytest

from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.pipeline.path_ranker import PathRanker
from repro.updater.updater import QuestionUpdater


@pytest.fixture(scope="module")
def multihop(retriever, encoder):
    updater = QuestionUpdater(encoder)
    return MultiHopRetriever(
        retriever, updater, MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=64)
    )


class TestHop2BeamWidth:
    def test_beam_capped_when_hop1_doc_absent(
        self, multihop, retriever, hotpot, monkeypatch
    ):
        """Force every hop-2 result list to exclude its hop-1 document —
        the overfetched (k_hop2 + 1)-th result must then be dropped, not
        silently widen the per-candidate beam."""
        cfg = multihop.config
        original_batch = retriever.retrieve_batch
        # retrieve_paths makes exactly two retrieve_batch calls per
        # question batch: hop 1 (one row per question), then hop 2 (one
        # row per hop-1 candidate, concatenated across questions)
        state = {"hop": 0, "hop1_ids": []}

        def batch_without_hop1(matrix, k=10, **kwargs):
            if state["hop"] == 0:
                rows = original_batch(matrix, k=k, **kwargs)
                state["hop1_ids"] = [
                    r.doc_id for row in rows for r in row
                ]
                state["hop"] = 1
                return rows
            state["hop"] = 0
            flat = state["hop1_ids"]
            rows = original_batch(matrix, k=k + len(flat), **kwargs)
            return [
                [r for r in row if r.doc_id != flat[i]][:k]
                for i, row in enumerate(rows)
            ]

        monkeypatch.setattr(retriever, "retrieve_batch", batch_without_hop1)
        for question in hotpot.test[:6]:
            paths = multihop.retrieve_paths_batch([question.text])[0]
            per_hop1 = Counter(p.doc_ids[0] for p in paths)
            assert per_hop1, question.text
            assert max(per_hop1.values()) <= cfg.k_hop2

    def test_total_paths_bounded_by_beam_product(self, multihop, hotpot):
        cfg = multihop.config
        for question in hotpot.test[:6]:
            paths = multihop.retrieve_paths_batch([question.text])[0]
            per_hop1 = Counter(p.doc_ids[0] for p in paths)
            assert max(per_hop1.values()) <= cfg.k_hop2
            assert len(paths) <= cfg.k_hop1 * cfg.k_hop2


class TestKPathsZero:
    def test_zero_returns_no_paths(self, multihop, hotpot):
        assert multihop.retrieve_paths_batch(
            [hotpot.test[0].text], k_paths=0
        ) == [[]]

    def test_none_uses_config_default(self, retriever, encoder, hotpot):
        updater = QuestionUpdater(encoder)
        narrow = MultiHopRetriever(
            retriever, updater, MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=2)
        )
        paths = narrow.retrieve_paths_batch([hotpot.test[0].text])[0]
        assert len(paths) == 2

    def test_explicit_k_overrides_config(self, multihop, hotpot):
        paths = multihop.retrieve_paths_batch(
            [hotpot.test[0].text], k_paths=1
        )[0]
        assert len(paths) == 1


class TestRerankKZero:
    def test_rerank_k_zero_returns_empty(self, retriever, multihop, hotpot):
        question = hotpot.test[0].text
        paths = multihop.retrieve_paths_batch([question], k_paths=4)[0]
        ranker = PathRanker(retriever)
        assert ranker.rerank(question, paths, k=0) == []

    def test_rerank_k_none_returns_all(self, retriever, multihop, hotpot):
        question = hotpot.test[0].text
        paths = multihop.retrieve_paths_batch([question], k_paths=4)[0]
        ranker = PathRanker(retriever)
        assert len(ranker.rerank(question, paths, k=None)) == len(paths)
