"""Unit tests for Wikihop-style query generation."""

from repro.data.wikihop import N_CANDIDATES, build_wikihop_dataset


class TestWikihop:
    def test_answer_among_candidates(self, world, corpus):
        dataset = build_wikihop_dataset(world, corpus, max_queries=50)
        for query in dataset.train + dataset.validation:
            assert query.answer in query.candidates

    def test_gold_titles_in_supports(self, world, corpus):
        dataset = build_wikihop_dataset(world, corpus, max_queries=50)
        for query in dataset.train + dataset.validation:
            for title in query.gold_titles:
                assert title in query.support_titles

    def test_query_text_format(self, world, corpus):
        dataset = build_wikihop_dataset(world, corpus, max_queries=20)
        for query in dataset.train + dataset.validation:
            assert query.subject in query.text
            assert query.relation.replace("_", " ") in query.text

    def test_candidate_count_bounded(self, world, corpus):
        dataset = build_wikihop_dataset(world, corpus, max_queries=30)
        for query in dataset.train + dataset.validation:
            assert 1 <= len(query.candidates) <= N_CANDIDATES

    def test_splits_partition(self, world, corpus):
        dataset = build_wikihop_dataset(world, corpus)
        ids = [q.qid for q in dataset.train + dataset.validation]
        assert len(ids) == len(set(ids))
        assert len(dataset.validation) > 0 and len(dataset.train) > 0

    def test_deterministic(self, world, corpus):
        a = build_wikihop_dataset(world, corpus, max_queries=25)
        b = build_wikihop_dataset(world, corpus, max_queries=25)
        assert [q.text for q in a.train] == [q.text for q in b.train]
