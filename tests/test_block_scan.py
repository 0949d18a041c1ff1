"""The block scan: what a search may cost, and what it must still say.

The parity matrix (``test_shard.py``) and the aggregation properties
(``test_segment_aggregation.py``) pin *values*. These pin the shape of
the work, so a later fast path cannot quietly return to one aggregation
per (query, shard) or to finding the explaining triple of every document:

* one segment reduction per probed shard, one in all for a full probe;
* explaining triples looked up for the k ranked documents only;
* a full probe is the same bytes at any shard count, over one matrix the
  shards are views of;
* probe order is shard-id order between equal centroids;
* the explanation itself: first best triple on a tie, none (and
  ``EMPTY_SCORE``) for a triple-less document that is ranked.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.shard.plan as plan_mod
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.retriever.strategies import (
    EMPTY_SCORE,
    ONE_FACT,
    ScoreStrategy,
    l2_normalize_rows,
)
from repro.shard import QueryShardScores, ShardPlan

QUESTIONS = [
    "Where was the first person born ?",
    "Which club does the historian play for ?",
    "What is linked to the novelist ?",
    "Who founded the company ?",
]
SHARD_COUNTS = (1, 2, 4, 16)
MODES = ("range", "centroid")


@pytest.fixture(scope="module")
def sharder(encoder, store):
    """A private retriever whose plan the tests may swap; one document
    is triple-less so the empty-segment path is always in play."""
    holed = TripleStore(store.corpus)
    doc_ids = store.doc_ids()
    for doc_id in doc_ids:
        holed.put(doc_id, store.triples(doc_id))
    holed.put(doc_ids[len(doc_ids) // 3], [])
    retriever = SingleRetriever(encoder, holed)
    retriever.refresh_embeddings()
    return retriever


def _plan_inputs(n_docs=40, dim=8, seed=3):
    """A random normalized corpus of 1-4 triple rows per document."""
    rng = np.random.RandomState(seed)
    lengths = rng.randint(1, 5, size=n_docs)
    matrix = l2_normalize_rows(rng.randn(int(lengths.sum()), dim))
    offsets = np.cumsum(lengths) - lengths
    queries = l2_normalize_rows(rng.randn(8, dim))
    return matrix, np.arange(n_docs), offsets, queries


@pytest.fixture()
def reductions(monkeypatch):
    """Shapes of the score blocks handed to the one aggregation."""
    seen = []
    real = plan_mod.aggregate_segments

    def spy(scores, segments, strategy):
        seen.append(np.shape(scores))
        return real(scores, segments, strategy)

    monkeypatch.setattr(plan_mod, "aggregate_segments", spy)
    return seen


@pytest.fixture()
def explained(monkeypatch):
    """How many documents each ``explain`` call was asked about."""
    seen = []
    real = QueryShardScores.explain

    def spy(self, positions):
        positions = list(positions)
        seen.append(len(positions))
        return real(self, positions)

    monkeypatch.setattr(QueryShardScores, "explain", spy)
    return seen


# ---------------------------------------------------------------------------
# the shape of the work
# ---------------------------------------------------------------------------


class TestWorkPerSearch:
    def test_one_reduction_per_probed_shard(self, reductions):
        matrix, doc_ids, offsets, queries = _plan_inputs()
        plan = ShardPlan.build(matrix, doc_ids, offsets, 4, mode="centroid")
        strategy = ScoreStrategy(ONE_FACT)

        plan.search(queries, strategy, nprobe=2)
        # 8 queries x 2 probes land in at most 4 shard groups, and every
        # (query, shard) pair is scored in exactly one of them
        assert 1 <= len(reductions) <= 4
        assert sum(shape[0] for shape in reductions) == 8 * 2
        del reductions[:]

        for full in (None, 4, 9):
            plan.search(queries, strategy, nprobe=full)
            assert reductions == [(8, plan.total_rows)]
            del reductions[:]

    def test_quantized_search_rides_the_same_reduction(self, reductions):
        matrix, doc_ids, offsets, queries = _plan_inputs()
        plan = ShardPlan.build(
            matrix, doc_ids, offsets, 4, mode="centroid", quantize=True
        )
        plan.search_quantized(queries, ScoreStrategy(ONE_FACT), 6, nprobe=2)
        coarse, rescored = reductions[:-8], reductions[-8:]
        assert 1 <= len(coarse) <= 4
        assert sum(shape[0] for shape in coarse) == 8 * 2
        # each query's survivor shard is a block of one row
        assert all(len(shape) == 1 for shape in rescored)

    def test_explaining_triples_are_found_for_the_winners(
        self, sharder, explained
    ):
        queries = sharder.encode_questions(QUESTIONS)
        n_docs = len(sharder.store.doc_ids())
        assert n_docs > 10
        for spec in (None, (4, "centroid")):
            if spec is not None:
                sharder.build_shards(*spec)
            try:
                for nprobe in (None,) if spec is None else (None, 2):
                    results = sharder.retrieve_batch(
                        queries, k=10, nprobe=nprobe
                    )
                    assert [len(docs) for docs in results] == [10] * 4
                    # one lookup pass per query, over its ranked ten
                    assert explained == [10] * 4
                    del explained[:]
            finally:
                sharder.detach_shards()

    def test_coarse_stage_explains_nothing(self, explained):
        matrix, doc_ids, offsets, queries = _plan_inputs()
        plan = ShardPlan.build(
            matrix, doc_ids, offsets, 4, mode="centroid", quantize=True
        )
        plan.search_quantized(queries, ScoreStrategy(ONE_FACT), 6, nprobe=2)
        assert explained == []


# ---------------------------------------------------------------------------
# one matrix, one product: a full probe at N shards is the one-shard plan
# ---------------------------------------------------------------------------


def _as_bytes(results):
    return [
        [
            (
                doc.doc_id,
                doc.score,
                doc.matched_triple,
                doc.triple_scores.tobytes(),
            )
            for doc in docs
        ]
        for docs in results
    ]


class TestShardMajorMatrix:
    def test_full_probe_is_byte_identical_at_every_shard_count(self, sharder):
        queries = sharder.encode_questions(QUESTIONS)
        k = len(sharder.store.doc_ids()) + 3  # the whole ranking
        sharder.detach_shards()
        expected = _as_bytes(
            sharder.retrieve_batch(queries, k=k, keep_triple_scores=True)
        )
        assert any(
            doc[1] == EMPTY_SCORE for docs in expected for doc in docs
        )
        for n_shards in SHARD_COUNTS:
            for mode in MODES:
                sharder.build_shards(n_shards, mode)
                try:
                    for nprobe in (None, n_shards):
                        got = sharder.retrieve_batch(
                            queries,
                            k=k,
                            keep_triple_scores=True,
                            nprobe=nprobe,
                        )
                        assert _as_bytes(got) == expected, (n_shards, mode)
                finally:
                    sharder.detach_shards()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_shards_are_views_of_the_plans_matrix(self, n_shards, mode):
        matrix, doc_ids, offsets, _ = _plan_inputs()
        plan = ShardPlan.build(matrix, doc_ids, offsets, n_shards, mode=mode)
        whole = plan.whole
        assert whole.n_rows == plan.total_rows == matrix.shape[0]
        assert len(whole) == plan.total_docs == len(doc_ids)
        if mode == "range":
            # contiguous labels: not even the one gather
            assert np.shares_memory(whole.matrix, matrix)
        cursor = 0
        for shard in plan.shards:
            if shard.n_rows:
                assert np.shares_memory(shard.matrix, whole.matrix)
            rows = slice(cursor, cursor + shard.n_rows)
            assert np.array_equal(shard.matrix, whole.matrix[rows])
            cursor += shard.n_rows
        assert cursor == whole.n_rows
        assert np.array_equal(
            np.concatenate([shard.doc_ids for shard in plan.shards]),
            whole.doc_ids,
        )
        # every document's rows travelled with it
        for position, doc_id in enumerate(whole.doc_ids.tolist()):
            start = whole.offsets[position]
            stop = start + whole.segments.lengths[position]
            source = slice(
                offsets[doc_id],
                offsets[doc_id + 1] if doc_id + 1 < len(offsets) else None,
            )
            assert np.array_equal(whole.matrix[start:stop], matrix[source])


# ---------------------------------------------------------------------------
# probe order between equal centroids
# ---------------------------------------------------------------------------

def tied_probe_order():
    """Probe lists over three range shards of which 0 and 2 hold the
    same rows: their centroids are equal, every query ties on them."""
    a = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0]])
    b = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
    plan = ShardPlan.build(
        np.concatenate([a, b, a]), range(6), range(6), 3, mode="range"
    )
    assert np.array_equal(plan.centroids[0], plan.centroids[2])
    queries = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
    return plan.probe(queries, 2).tolist(), plan.probe(queries[:1], 1).tolist()


_TIED_PROBE_ORDER = ([[0, 2], [1, 0], [0, 2]], [[0]])


class TestProbeTies:
    def test_equal_centroids_probe_in_shard_id_order(self):
        assert tied_probe_order() == _TIED_PROBE_ORDER

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_independent_of_the_hash_seed(self, hash_seed):
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import test_block_scan as t; print(t.tied_probe_order())",
            ],
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert child.stdout.strip() == repr(_TIED_PROBE_ORDER)

    def test_full_probe_lists_every_shard_in_id_order(self):
        matrix, doc_ids, offsets, queries = _plan_inputs()
        plan = ShardPlan.build(matrix, doc_ids, offsets, 4, mode="centroid")
        for nprobe in (None, 4, 7):
            assert plan.probe(queries, nprobe).tolist() == [[0, 1, 2, 3]] * 8


# ---------------------------------------------------------------------------
# the explanation itself
# ---------------------------------------------------------------------------


class TestExplanation:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_a_tie_inside_a_document_reports_the_first_best_triple(
        self, n_shards, mode
    ):
        matrix, doc_ids, offsets, _ = _plan_inputs()
        matrix = matrix.copy()
        basis = np.eye(matrix.shape[1])
        # against the query e0 every cosine is its row's first element,
        # exactly, wherever the row sits in a product: real ties
        lengths = np.diff(np.append(offsets, matrix.shape[0]))
        doc = int(np.flatnonzero(lengths >= 3)[0])
        start, stop = offsets[doc], offsets[doc] + lengths[doc]
        matrix[start] = basis[1]
        matrix[start + 1 : stop] = basis[0]
        plan = ShardPlan.build(matrix, doc_ids, offsets, n_shards, mode=mode)
        (scores,) = plan.search(basis[:1], ScoreStrategy(ONE_FACT))
        position = int(np.flatnonzero(scores.doc_ids == doc)[0])
        ((local, cosines),) = scores.explain([position])
        assert cosines.tolist() == [0.0] + [1.0] * (lengths[doc] - 1)
        assert local == 1
        assert scores.scores[position] == 1.0

    def test_a_ranked_document_without_triples_has_no_explanation(
        self, sharder
    ):
        queries = sharder.encode_questions(QUESTIONS)
        doc_ids = sharder.store.doc_ids()
        hole = doc_ids[len(doc_ids) // 3]
        for spec in (None, (4, "range"), (4, "centroid")):
            if spec is not None:
                sharder.build_shards(*spec)
            try:
                results = sharder.retrieve_batch(
                    queries, k=len(doc_ids), keep_triple_scores=True
                )
            finally:
                sharder.detach_shards()
            for docs in results:
                # cosines are > -1, so the triple-less document is last
                assert docs[-1].doc_id == hole
                assert docs[-1].score == EMPTY_SCORE
                assert docs[-1].matched_triple is None
                assert docs[-1].triple_scores.shape == (0,)
                assert "no triple facts" in docs[-1].explain()
                assert all(d.matched_triple is not None for d in docs[:-1])
