"""Focused tests for the hop-2 clue-vector mechanics."""

import numpy as np
import pytest

from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.updater.updater import QuestionUpdater


@pytest.fixture(scope="module")
def multihop(retriever, encoder):
    updater = QuestionUpdater(encoder)
    return MultiHopRetriever(
        retriever, updater, MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=8)
    )


class TestClueVector:
    def test_clue_changes_hop2_ranking(self, multihop, retriever, hotpot, corpus):
        """With a clue, hop-2 results must differ from hop-1 results for
        at least some questions (the drowning failure mode would make
        them identical everywhere)."""
        differs = 0
        for question in hotpot.test[:8]:
            paths = multihop.retrieve_paths_batch([question.text])[0]
            hop1_ids = {p.doc_ids[0] for p in paths}
            hop2_ids = {p.doc_ids[1] for p in paths}
            if hop2_ids - hop1_ids:
                differs += 1
        assert differs > 0

    def test_clue_weight_zero_reduces_to_question(self, retriever, encoder, hotpot):
        updater = QuestionUpdater(encoder)
        no_clue = MultiHopRetriever(
            retriever,
            updater,
            MultiHopConfig(k_hop1=3, k_hop2=3, clue_weight=0.0),
        )
        question = hotpot.test[0].text
        paths = no_clue.retrieve_paths_batch([question])[0]
        hop1 = [r.doc_id for r in retriever.retrieve_many([question], k=3)[0]]
        # with no clue contribution, hop-2 ranking mirrors hop-1 (minus
        # the excluded hop-1 doc)
        for path in paths[:3]:
            assert path.doc_ids[1] in hop1 or path.doc_ids[1] not in hop1[:1]

    def test_gold_clue_boosts_gold_hop2(self, retriever, encoder, corpus, hotpot, store):
        """Oracle check: mixing in the gold clue's novel tokens must rank
        the gold hop-2 document above its rank under the plain question
        for a majority of answerable bridge questions."""
        from repro.updater.golden import ground_clue_index

        improved = total = 0
        for question in hotpot.test:
            if not question.is_bridge:
                continue
            hop1 = corpus.by_title(question.gold_titles[0])
            hop2 = corpus.by_title(question.gold_titles[1])
            triples = store.triples(hop1.doc_id)
            gold = ground_clue_index(triples, hop2)
            if gold is None:
                continue
            clue = triples[gold]
            question_tokens = set(
                t.lower() for t in question.text.replace("?", " ").split()
            )
            novel = [
                t
                for t in clue.flatten().split()
                if t.lower() not in question_tokens and t[:1].isupper()
            ]
            if not novel:
                continue
            question_vec = retriever.encode_questions([question.text])[0]
            clue_vec = encoder.encode_numpy([" ".join(novel)])[0]
            mixed = question_vec / np.linalg.norm(question_vec) + clue_vec / (
                np.linalg.norm(clue_vec) or 1.0
            )

            def rank_of(vec):
                results = retriever.retrieve_batch(vec[None], k=len(corpus))[0]
                for position, result in enumerate(results):
                    if result.title == hop2.title:
                        return position
                return len(corpus)

            total += 1
            if rank_of(mixed) < rank_of(question_vec):
                improved += 1
        assert total > 0
        assert improved / total > 0.5
