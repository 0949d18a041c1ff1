"""Property-based tests for triple-set construction invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oie.triple import Triple
from repro.oie.union import dedupe_triples
from repro.triples.canopy import build_canopies
from repro.triples.construct import ConstructionConfig, TripleSetConstructor
from repro.triples.hac import hac_construct
from repro.triples.setcover import find_mother_child_pairs, greedy_cover
from repro.triples.sibling import fuse_siblings, sibling_similarity

word = st.sampled_from(
    "lynd davis club band quaker activist historian american famous "
    "founded played won formed is was in for".split()
)
phrase = st.lists(word, min_size=1, max_size=4).map(" ".join)
subjects = st.sampled_from(["Lynd", "Davis", "The club"])
predicates = st.sampled_from(["is", "was", "played for", "won"])

triples_strategy = st.lists(
    st.builds(
        Triple,
        subject=subjects,
        predicate=predicates,
        object=phrase,
    ),
    min_size=0,
    max_size=12,
)


class TestSetCoverProperties:
    @given(triples_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cover_has_no_mother_child_pairs(self, triples):
        survivors = greedy_cover(triples)
        assert not find_mother_child_pairs(survivors)

    @given(triples_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cover_is_subset(self, triples):
        survivors = greedy_cover(triples)
        assert len(survivors) <= len(triples)
        identity = {id(t) for t in triples}
        assert all(id(t) in identity for t in survivors)


class TestSiblingProperties:
    @given(triples_strategy)
    @settings(max_examples=40, deadline=None)
    def test_fusion_never_grows(self, triples):
        fused = fuse_siblings(triples)
        assert len(fused) <= len(triples)

    @given(triples_strategy)
    @settings(max_examples=40, deadline=None)
    def test_fusion_preserves_objects(self, triples):
        fused = fuse_siblings(triples)
        fused_text = " ".join(t.flatten().lower() for t in fused)
        # every original object's content survives somewhere (possibly
        # subsumed by a longer object that contains its tokens)
        for triple in triples:
            tokens = [w for w in triple.object.lower().split()]
            assert any(token in fused_text for token in tokens)

    @given(
        st.builds(Triple, subject=subjects, predicate=predicates, object=phrase),
        st.builds(Triple, subject=subjects, predicate=predicates, object=phrase),
    )
    @settings(max_examples=60, deadline=None)
    def test_similarity_symmetric_and_bounded(self, a, b):
        sim_ab = sibling_similarity(a, b)
        assert 0.0 <= sim_ab <= 1.0
        assert sim_ab == sibling_similarity(b, a)


class TestConstructionProperties:
    @given(triples_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_threshold_respected(self, triples, threshold):
        constructor = TripleSetConstructor(
            ConstructionConfig(threshold_size=threshold)
        )
        result = constructor.construct(triples)
        assert len(result.triples) <= threshold

    @given(triples_strategy)
    @settings(max_examples=30, deadline=None)
    def test_counters_add_up(self, triples):
        constructor = TripleSetConstructor()
        result = constructor.construct(triples)
        assert result.pruned_noise >= 0
        assert len(result.triples) <= len(dedupe_triples(triples))

    @given(triples_strategy)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, triples):
        a = TripleSetConstructor().construct(triples)
        b = TripleSetConstructor().construct(triples)
        assert [t.flatten() for t in a.triples] == [
            t.flatten() for t in b.triples
        ]


class TestHACProperties:
    @given(triples_strategy, st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_hac_size_bounded(self, triples, threshold):
        out = hac_construct(triples, threshold)
        assert len(out) <= max(threshold, 0) or not triples
        if triples:
            assert len(out) == min(threshold, len(triples))


class TestCanopyProperties:
    @given(triples_strategy)
    @settings(max_examples=40, deadline=None)
    def test_canopies_partition_input(self, triples):
        canopies = build_canopies(triples)
        total = sum(len(c) for c in canopies)
        assert total == len(triples)
