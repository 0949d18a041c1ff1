"""Unit tests for HotpotQA-style question generation."""

from repro.data.hotpot import BRIDGE, COMPARISON, build_hotpot_dataset


class TestHotpotGeneration:
    def test_splits_disjoint(self, hotpot):
        train_ids = {q.qid for q in hotpot.train}
        test_ids = {q.qid for q in hotpot.test}
        assert not train_ids & test_ids

    def test_both_types_present(self, hotpot):
        types = {q.qtype for q in hotpot.all_questions}
        assert types == {BRIDGE, COMPARISON}

    def test_bridge_dominates(self, hotpot):
        bridge = sum(1 for q in hotpot.all_questions if q.is_bridge)
        assert bridge > len(hotpot.all_questions) / 2

    def test_gold_titles_exist_in_corpus(self, hotpot, corpus):
        for question in hotpot.all_questions:
            for title in question.gold_titles:
                assert corpus.by_title(title) is not None

    def test_gold_path_length_two(self, hotpot):
        assert all(len(q.gold_titles) == 2 for q in hotpot.all_questions)

    def test_bridge_answer_in_hop2_document(self, hotpot, corpus):
        for question in hotpot.all_questions:
            if not question.is_bridge:
                continue
            hop2 = corpus.by_title(question.gold_titles[1])
            assert question.answer in hop2.text

    def test_comparison_golds_differ(self, hotpot):
        for question in hotpot.all_questions:
            if not question.is_bridge:
                assert question.gold_titles[0] != question.gold_titles[1]

    def test_statistics_table(self, hotpot):
        stats = hotpot.statistics()
        assert set(stats) == {"train", "test"}
        for split in stats.values():
            assert split["bridge"] + split["comparison"] == split["total"]

    def test_deterministic(self, world, corpus):
        a = build_hotpot_dataset(world, corpus, comparison_per_kind=4)
        b = build_hotpot_dataset(world, corpus, comparison_per_kind=4)
        assert [q.text for q in a.train] == [q.text for q in b.train]

    def test_descriptive_prob_zero_keeps_names(self, world, corpus):
        dataset = build_hotpot_dataset(
            world, corpus, descriptive_prob=0.0, partial_name_prob=0.0
        )
        for question in dataset.all_questions:
            if question.is_bridge:
                assert question.gold_titles[0] in question.text
