"""Unit tests for triple-set construction: relatedness, canopies,
set cover, sibling fusion, Algorithm 1 and the HAC baseline."""

import pytest

import repro.triples.construct
from repro.index.entity_index import EntityIndex
from repro.oie.triple import Triple
from repro.triples.canopy import build_canopies
from repro.triples.construct import ConstructionConfig, TripleSetConstructor
from repro.triples.hac import hac_cluster, hac_construct
from repro.triples.relatedness import prune_noise, relatedness
from repro.triples.setcover import find_mother_child_pairs, greedy_cover
from repro.triples.sibling import (
    find_sibling_pairs,
    fuse_pair,
    fuse_siblings,
    sibling_similarity,
)

LYND = [
    Triple("Lynd", "is", "an American"),
    Triple("Lynd", "is", "American conscientious objector"),
    Triple("Lynd", "is", "Quaker"),
    Triple("Lynd", "is", "peace activist"),
    Triple("Lynd", "won", "a national prize"),
    Triple("civil rights activist", "is", "historian"),
]


class TestRelatedness:
    def _linker(self):
        linker = EntityIndex(["Lynd", "Howard Zinn"])
        return linker

    def test_related_triple_scores_positive(self):
        linker = self._linker()
        score = relatedness(LYND[0], ["Lynd", "Howard Zinn"], linker)
        assert score == 0.5

    def test_noise_triple_scores_zero(self):
        linker = self._linker()
        assert relatedness(LYND[5], ["Lynd"], linker) == 0.0

    def test_prune_noise_drops_unrelated(self):
        linker = self._linker()
        kept, scores = prune_noise(LYND, ["Lynd"], linker)
        assert LYND[5] not in kept
        assert len(kept) == len(scores) == 5

    def test_prune_keeps_everything_when_all_zero(self):
        linker = EntityIndex(["Nobody"])
        kept, _ = prune_noise(LYND, ["Nobody"], linker)
        assert len(kept) == len(LYND)

    def test_empty_doc_entities(self):
        linker = self._linker()
        assert relatedness(LYND[0], [], linker) == 0.0


class TestCanopy:
    def test_subject_predicate_canopy(self):
        canopies = build_canopies(LYND[:4])
        sp = [c for c in canopies if c.level == "subject-predicate"]
        assert len(sp) == 1 and len(sp[0]) == 4

    def test_union_of_canopies_is_input(self):
        canopies = build_canopies(LYND)
        total = sum(len(c) for c in canopies)
        assert total == len(LYND)

    def test_singletons_form_subject_canopies(self):
        canopies = build_canopies([LYND[4], LYND[5]])
        assert all(c.level == "subject" for c in canopies)

    def test_empty(self):
        assert build_canopies([]) == []


class TestSetCover:
    def test_covers_detects_subset(self):
        # the child never covers its mother
        assert (1, 0) not in find_mother_child_pairs(LYND[:2])

    def test_covers_requires_same_subject(self):
        a = Triple("X", "is", "great thing")
        b = Triple("Y", "is", "great")
        assert find_mother_child_pairs([a, b]) == []

    def test_find_pairs(self):
        pairs = find_mother_child_pairs(LYND[:2])
        assert (0, 1) in pairs

    def test_greedy_cover_removes_children(self):
        survivors = greedy_cover(LYND[:2])
        assert survivors == [LYND[1]]

    def test_greedy_cover_no_pairs_keeps_all(self):
        survivors = greedy_cover([LYND[2], LYND[3]])
        assert len(survivors) == 2

    def test_no_mother_child_in_result(self):
        survivors = greedy_cover(LYND)
        assert not find_mother_child_pairs(survivors)

    def test_singleton(self):
        assert greedy_cover([LYND[0]]) == [LYND[0]]


class TestSibling:
    def test_same_subject_predicate_are_siblings(self):
        assert sibling_similarity(LYND[2], LYND[3]) >= 0.75

    def test_different_predicate_below_threshold(self):
        assert sibling_similarity(LYND[2], LYND[4]) < 0.75

    def test_fuse_pair_merges_objects(self):
        fused = fuse_pair(LYND[2], LYND[3])
        assert fused.object == "Quaker"
        assert "peace activist" in fused.extra_objects
        assert fused.source == "fusion"

    def test_fuse_pair_drops_subsumed_objects(self):
        a = Triple("A", "was established", "in 1885")
        b = Triple("A", "was established", "1885")
        fused = fuse_pair(a, b)
        assert fused.extra_objects == ()

    def test_fuse_siblings_reduces_count(self):
        out = fuse_siblings(LYND[1:4])
        assert len(out) < 3

    def test_find_pairs_threshold(self):
        assert find_sibling_pairs([LYND[2], LYND[4]], alpha=0.75) == []


class TestConstruct:
    def test_respects_threshold_size(self):
        constructor = TripleSetConstructor(ConstructionConfig(threshold_size=2))
        result = constructor.construct(LYND)
        assert len(result.triples) <= 2

    def test_complete_when_budget_allows(self):
        constructor = TripleSetConstructor(ConstructionConfig(threshold_size=40))
        result = constructor.construct(LYND)
        text = " ".join(t.flatten() for t in result.triples)
        for triple in (LYND[1], LYND[2], LYND[3]):
            assert triple.object in text

    def test_noise_pruned_with_linker(self):
        linker = EntityIndex(["Lynd"])
        constructor = TripleSetConstructor(linker=linker)
        result = constructor.construct(LYND, doc_entities=["Lynd"])
        assert result.pruned_noise >= 1
        assert all(t.subject == "Lynd" for t in result.triples)

    def test_children_removed(self):
        constructor = TripleSetConstructor()
        result = constructor.construct(LYND)
        flattened = [t.flatten() for t in result.triples]
        assert "Lynd is an American" not in flattened

    def test_empty_input(self):
        result = TripleSetConstructor().construct([])
        assert result.triples == []
        assert (result.pruned_noise, result.removed_children, result.fused) == (
            0, 0, 0,
        )

    def test_max_chars_clipping(self):
        limit = ConstructionConfig().max_triple_chars
        long_triples = [
            Triple("S", "is", "x" * 100),
            Triple("S", "is", "y" * 100),
            Triple("S", "is", "z" * 100),
        ]
        # fused, the three would flatten to 307 characters
        result = TripleSetConstructor().construct(long_triples)
        assert any(t.extra_objects for t in result.triples)
        assert all(len(t.flatten()) <= limit for t in result.triples)

    def test_counters_consistent(self):
        result = TripleSetConstructor().construct(LYND)
        assert result.removed_children >= 1
        assert result.fused >= 1

    def test_from_text(self, corpus):
        doc = next(d for d in corpus if d.entity.kind == "club")
        constructor = TripleSetConstructor()
        result = constructor.construct_from_text(
            doc.text, title=doc.title, entity_kind="club"
        )
        assert result.triples
        assert any(doc.title in t.subject for t in result.triples)


class TestTighteningFloor:
    """Algorithm 1 tightens the sibling threshold one step per round while
    ``|T_d| > l``, down to ``min_alpha`` and never below it."""

    @pytest.fixture
    def round_alphas(self, monkeypatch):
        alphas = []
        real = repro.triples.construct.fuse_siblings

        def spy(triples, alpha=0.75):
            alphas.append(alpha)
            return real(triples, alpha=alpha)

        monkeypatch.setattr(repro.triples.construct, "fuse_siblings", spy)
        return alphas

    def test_no_round_runs_below_the_floor(self, round_alphas):
        # six subjects cannot fuse into one triple: every round runs
        config = ConstructionConfig(threshold_size=1)
        TripleSetConstructor(config).construct(LYND)
        assert min(round_alphas) >= config.min_alpha

    def test_last_round_runs_at_the_floor(self, round_alphas):
        config = ConstructionConfig(threshold_size=1)
        TripleSetConstructor(config).construct(LYND)
        assert sorted(set(round_alphas), reverse=True) == pytest.approx(
            [0.75, 0.65, 0.55, config.min_alpha]
        )

    def test_no_tightening_within_the_budget(self, round_alphas):
        TripleSetConstructor().construct(LYND)
        assert set(round_alphas) == {ConstructionConfig().sibling_alpha}


class TestHAC:
    def test_cluster_count(self):
        clusters = hac_cluster(LYND, 3)
        assert len(clusters) == 3
        assert sum(len(c) for c in clusters) == len(LYND)

    def test_similar_triples_cluster_together(self):
        clusters = hac_cluster(LYND[:4], 2)
        sizes = sorted(len(c) for c in clusters)
        assert sizes[-1] >= 2

    def test_construct_size(self):
        out = hac_construct(LYND, 3)
        assert len(out) == 3

    def test_construct_loses_information(self):
        # HAC keeps one representative per cluster: with 1 cluster only one
        # triple survives, demonstrating the information loss Algorithm 1
        # avoids via fusion.
        out = hac_construct(LYND[:4], 1)
        assert len(out) == 1

    def test_empty(self):
        assert hac_construct([], 3) == []

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            hac_cluster(LYND, 0)
