"""Tests for ``repro.shard``: parity, pruning recall, persistence.

The load-bearing claims:

* retrieval with no pruning is **byte-identical** to a brute-force
  oracle (``reference.brute_force_rank``) through the default plan and at
  1/2/4 shards in both assignment modes, for every score strategy, on a
  plain and an adversarial corpus (same doc ids, same float scores, same
  matched triples, same per-triple score vectors);
* recall@k against exact retrieval is monotone non-decreasing in
  ``nprobe`` and exactly 1.0 at ``nprobe = n_shards``;
* a memmap-attached store warm-starts the retriever with zero
  re-encoding and shards exactly as a cold-built retriever does.
"""

import numpy as np
import pytest
from reference import brute_force_rank

from repro.ingest import EmbeddingStore
from repro.perf import COUNTERS
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.retriever.strategies import (
    MEAN,
    ONE_FACT,
    TOP_K,
    ScoreStrategy,
    l2_normalize_rows,
)
from repro.shard import (
    ShardPlan,
    assign_centroid,
    assign_range,
    recall_at_k,
    segment_means,
    topk_doc_order,
)

QUESTIONS = [
    "Where was the first person born ?",
    "Which club does the historian play for ?",
    "What is linked to the novelist ?",
]


@pytest.fixture(scope="module")
def sharder(encoder, store):
    """A private retriever whose shard state the tests may mutate."""
    retriever = SingleRetriever(encoder, store)
    retriever.refresh_embeddings()
    return retriever


@pytest.fixture(scope="module")
def worlds(sharder, encoder, store):
    """name -> (retriever, k) for the parity matrix.

    ``adversarial`` makes every document a copy of one of five, so exact
    score ties straddle every range shard and only the ``(score desc,
    doc id asc)`` order separates them; one document has no triples; and
    ``k`` exceeds the corpus, so the whole ranking is compared.
    """
    doc_ids = store.doc_ids()
    twisted = TripleStore(store.corpus)
    for position, doc_id in enumerate(doc_ids):
        twisted.put(doc_id, store.triples(doc_ids[position % 5]))
    twisted.put(doc_ids[len(doc_ids) // 2], [])
    adversarial = SingleRetriever(encoder, twisted)
    adversarial.refresh_embeddings()
    return {
        "plain": (sharder, 5),
        "adversarial": (adversarial, len(doc_ids) + 3),
    }


STRATEGIES = {
    "one_fact": ScoreStrategy(ONE_FACT),
    "top2": ScoreStrategy(TOP_K, k=2),
    "top5": ScoreStrategy(TOP_K, k=5),
    "mean": ScoreStrategy(MEAN),
}
PLANS = [None] + [(n, mode) for n in (1, 2, 4) for mode in ("range", "centroid")]


def _parity_cells():
    for kind in ("plain", "adversarial"):
        for strategy in STRATEGIES:
            for plan in PLANS:
                # the plain one-fact cells keep the bare ``n-mode`` ids
                # they had when they were the whole matrix
                parts = ["default" if plan is None else f"{plan[0]}-{plan[1]}"]
                parts += [strategy] if strategy != "one_fact" else []
                parts += [kind] if kind != "plain" else []
                yield pytest.param(kind, strategy, plan, id="-".join(parts))


# ---------------------------------------------------------------------------
# deterministic top-k merge
# ---------------------------------------------------------------------------


class TestTopkDocOrder:
    def test_orders_by_score_desc_then_id_asc(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        ids = np.array([7, 3, 2, 1])
        order = topk_doc_order(scores, ids, 3)
        assert ids[order].tolist() == [3, 2, 7]

    def test_permutation_invariant(self):
        rng = np.random.RandomState(0)
        scores = rng.choice([0.1, 0.5, 0.9], size=64)  # heavy ties
        ids = np.arange(64)
        base = ids[topk_doc_order(scores, ids, 10)]
        for _ in range(5):
            perm = rng.permutation(64)
            got = ids[perm][topk_doc_order(scores[perm], ids[perm], 10)]
            assert got.tolist() == base.tolist()

    def test_k_clamps_and_zero(self):
        scores = np.array([0.3, 0.2])
        ids = np.array([0, 1])
        assert topk_doc_order(scores, ids, 99).shape[0] == 2
        assert topk_doc_order(scores, ids, 0).shape[0] == 0
        assert topk_doc_order(np.zeros(0), np.zeros(0), 5).shape[0] == 0

    def test_recall_at_k(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([2, 3, 4])) == (
            pytest.approx(2 / 3)
        )
        assert recall_at_k(np.zeros(0), np.zeros(0)) == 1.0


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


class TestAssignment:
    def test_range_is_contiguous_and_near_equal(self):
        labels = assign_range(10, 3)
        assert labels.tolist() == sorted(labels.tolist())
        sizes = np.bincount(labels, minlength=3)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 10

    def test_range_more_shards_than_docs(self):
        labels = assign_range(2, 5)
        assert labels.shape[0] == 2
        assert set(labels.tolist()) <= set(range(5))

    def test_centroid_deterministic(self):
        rng = np.random.RandomState(7)
        vectors = rng.randn(40, 8)
        labels_a, centroids_a = assign_centroid(vectors, 4)
        labels_b, centroids_b = assign_centroid(vectors, 4)
        assert np.array_equal(labels_a, labels_b)
        assert np.array_equal(centroids_a, centroids_b)
        assert labels_a.shape[0] == 40

    def test_centroid_groups_clusters_together(self):
        rng = np.random.RandomState(3)
        centers = rng.randn(4, 16) * 4.0
        vectors = np.concatenate(
            [centers[i] + 0.05 * rng.randn(25, 16) for i in range(4)]
        )
        labels, _ = assign_centroid(vectors, 4)
        # every ground-truth cluster lands (almost) wholly in one shard
        for i in range(4):
            block = labels[i * 25 : (i + 1) * 25]
            majority = np.bincount(block).max()
            assert majority >= 24

    def test_segment_means_skips_empty_segments(self):
        matrix = np.arange(12.0).reshape(6, 2)
        offsets = np.array([0, 2, 2, 5])  # doc 1 has no rows
        means = segment_means(matrix, offsets)
        assert np.array_equal(means[0], matrix[0:2].mean(axis=0))
        assert np.array_equal(means[1], np.zeros(2))
        assert np.array_equal(means[2], matrix[2:5].mean(axis=0))
        assert np.array_equal(means[3], matrix[5:6].mean(axis=0))


# ---------------------------------------------------------------------------
# parity: every plan == brute force, byte for byte
# ---------------------------------------------------------------------------


class TestShardParity:
    @pytest.mark.parametrize("kind,strategy,plan", list(_parity_cells()))
    def test_no_pruning_is_byte_identical(
        self, worlds, kind, strategy, plan
    ):
        retriever, k = worlds[kind]
        strategy = STRATEGIES[strategy]
        queries = retriever.encode_questions(QUESTIONS)
        expected = brute_force_rank(retriever, queries, k, strategy)
        if plan is not None:
            retriever.build_shards(*plan)
        try:
            got = retriever.retrieve_batch(
                queries, k=k, strategy=strategy, keep_triple_scores=True
            )
        finally:
            retriever.detach_shards()
        for expected_docs, got_docs in zip(expected, got):
            assert [d.doc_id for d in got_docs] == [
                doc_id for doc_id, _, _, _ in expected_docs
            ]
            # float equality, not approx: same dot products, same order
            assert [d.score for d in got_docs] == [
                score for _, score, _, _ in expected_docs
            ]
            for doc, (doc_id, _, local, scores) in zip(got_docs, expected_docs):
                triples = retriever.store.triples(doc_id)
                assert doc.matched_triple == (
                    triples[local] if local >= 0 else None
                )
                assert np.array_equal(doc.triple_scores, scores)

    def test_nprobe_all_shards_is_exact(self, sharder):
        sharder.detach_shards()
        exact = sharder.retrieve_many(QUESTIONS, k=4)
        sharder.build_shards(4, mode="centroid")
        try:
            probed = sharder.retrieve_many(QUESTIONS, k=4, nprobe=4)
        finally:
            sharder.detach_shards()
        for exact_docs, probed_docs in zip(exact, probed):
            assert [d.doc_id for d in exact_docs] == [
                d.doc_id for d in probed_docs
            ]
            assert [d.score for d in exact_docs] == [
                d.score for d in probed_docs
            ]

    def test_parity_holds_for_topk_strategy(self, sharder):
        strategy = ScoreStrategy(TOP_K, k=2)
        sharder.detach_shards()
        queries = sharder.encode_questions(QUESTIONS)
        exact = sharder.retrieve_batch(queries, k=5, strategy=strategy)
        sharder.build_shards(3, mode="range")
        try:
            sharded = sharder.retrieve_batch(queries, k=5, strategy=strategy)
        finally:
            sharder.detach_shards()
        for exact_docs, sharded_docs in zip(exact, sharded):
            assert [(d.doc_id, d.score) for d in exact_docs] == [
                (d.doc_id, d.score) for d in sharded_docs
            ]

    def test_nprobe_without_shards_raises(self, sharder):
        sharder.detach_shards()
        with pytest.raises(ValueError, match="nprobe requires an active"):
            sharder.retrieve_many(QUESTIONS, k=3, nprobe=1)

    def test_nprobe_below_one_raises(self, sharder):
        plan = sharder.build_shards(2)
        try:
            queries = sharder.encode_questions(QUESTIONS)
            for bad in (0, -3):
                with pytest.raises(ValueError, match="nprobe must be >= 1"):
                    sharder.retrieve_batch(queries, k=3, nprobe=bad)
                with pytest.raises(ValueError, match="nprobe must be >= 1"):
                    plan.probe(queries, bad)
        finally:
            sharder.detach_shards()

    def test_counters_record_what_each_query_probed(self, sharder):
        """Unequal shards, nprobe=1: the scored totals are per-query sums."""
        plan = sharder.build_shards(4, mode="centroid")
        try:
            queries = plan.centroids  # one query aimed at each shard
            probed = [
                plan.shards[int(shard_ids[0])]
                for shard_ids in plan.probe(l2_normalize_rows(queries), 1)
            ]
            # the case a (largest shard x n_queries) figure over-counts
            assert len({shard.n_rows for shard in probed}) > 1
            before = COUNTERS.snapshot()
            sharder.retrieve_batch(queries, k=3, nprobe=1)
            after = COUNTERS.snapshot()
        finally:
            sharder.detach_shards()
        assert after["triples_scored"] - before["triples_scored"] == sum(
            shard.n_rows for shard in probed
        )
        assert after["docs_scored"] - before["docs_scored"] == sum(
            len(shard) for shard in probed
        )


# ---------------------------------------------------------------------------
# pruned recall properties (synthetic clustered corpus, ShardPlan direct)
# ---------------------------------------------------------------------------


def _clustered_plan_inputs(
    n_docs=240, n_centers=8, dim=16, max_triples=3, seed=5
):
    rng = np.random.RandomState(seed)
    centers = rng.randn(n_centers, dim) * 3.0
    rows = []
    offsets = []
    cursor = 0
    doc_center = rng.randint(n_centers, size=n_docs)
    for doc_id in range(n_docs):
        n_rows = 1 + rng.randint(max_triples)
        offsets.append(cursor)
        rows.append(
            centers[doc_center[doc_id]] + 0.1 * rng.randn(n_rows, dim)
        )
        cursor += n_rows
    matrix = np.concatenate(rows)
    normed = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    queries = centers[rng.randint(n_centers, size=12)] + 0.1 * rng.randn(
        12, dim
    )
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return normed, np.arange(n_docs), np.asarray(offsets), queries


class TestPrunedRecall:
    N_SHARDS = 8

    def _recalls(self):
        normed, doc_ids, offsets, queries = _clustered_plan_inputs()
        plan = ShardPlan.build(
            normed, doc_ids, offsets, self.N_SHARDS, mode="centroid"
        )
        strategy = ScoreStrategy(ONE_FACT)
        exact_top = [
            scores.doc_ids[topk_doc_order(scores.scores, scores.doc_ids, 10)]
            for scores in plan.search(queries, strategy, nprobe=None)
        ]
        recalls = []
        for nprobe in range(1, self.N_SHARDS + 1):
            scored = plan.search(queries, strategy, nprobe=nprobe)
            total = 0.0
            for query_scores, exact_ids in zip(scored, exact_top):
                approx = query_scores.doc_ids[
                    topk_doc_order(
                        query_scores.scores, query_scores.doc_ids, 10
                    )
                ]
                total += recall_at_k(approx, exact_ids)
            recalls.append(total / len(exact_top))
        return recalls

    def test_recall_monotone_in_nprobe(self):
        recalls = self._recalls()
        # average recall may not be strictly monotone per query, but the
        # probe sets are nested per query, so recall is monotone exactly
        for lower, higher in zip(recalls, recalls[1:]):
            assert higher >= lower - 1e-12

    def test_recall_is_one_at_full_probe(self):
        recalls = self._recalls()
        assert recalls[-1] == 1.0

    def test_clustered_data_prunes_well(self):
        recalls = self._recalls()
        # centroid shards over clustered docs: tiny nprobe, high recall
        assert recalls[1] >= 0.9


# ---------------------------------------------------------------------------
# warm attach, then shard: the one persistence story
# ---------------------------------------------------------------------------


class TestWarmAttachThenShard:
    def test_mmap_attach_build_shards_zero_reencode_and_parity(
        self, sharder, encoder, store, tmp_path
    ):
        sharder.detach_shards()
        exact = sharder.retrieve_many(QUESTIONS, k=5)
        sharder.export_embeddings().save(tmp_path)
        cold_plan = sharder.build_shards(4, "centroid")
        warm = SingleRetriever(encoder, store)
        adopted = warm.attach_embeddings(
            EmbeddingStore.open(tmp_path, mmap=True)
        )
        assert adopted == store.total_triples()
        encoded_before = COUNTERS.snapshot()["texts_encoded"]
        warm_plan = warm.build_shards(4, "centroid")
        assert COUNTERS.snapshot()["texts_encoded"] == encoded_before
        assert warm.refresh_embeddings() == 0  # zero re-encoding
        assert warm.shard_plan.n_shards == 4
        # seeded k-means over the same store: every process derives the
        # same document-to-shard assignment, nothing needs persisting
        for plan in (warm_plan, warm.shard_plan):
            assert [s.doc_ids.tolist() for s in plan.shards] == [
                s.doc_ids.tolist() for s in cold_plan.shards
            ]
        got = warm.retrieve_many(QUESTIONS, k=5)
        for exact_docs, got_docs in zip(exact, got):
            assert [(d.doc_id, d.score) for d in exact_docs] == [
                (d.doc_id, d.score) for d in got_docs
            ]
