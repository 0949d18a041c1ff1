"""Tests for ``repro.serve``: cache, batching, backpressure, determinism.

The concurrency stress test uses a *dyadic* encoder: embedding entries
are 0/±1 with exactly 16 nonzeros in 32 dims, so every normalized entry
(±1/4) and every cosine (a sum of ±1/16 terms) is an exact dyadic
rational. Float addition over those values is exact, hence associative,
hence the scoring matmul is bitwise identical for *any* batch shape —
which is what lets the test assert byte-identical results under dynamic
micro-batch coalescing instead of hiding behind a tolerance.
"""

import threading

import numpy as np
import pytest

from repro.data.corpus import Corpus, Document
from repro.data.world import Entity
from repro.net.bootstrap import DyadicEncoder
from repro.oie.triple import Triple
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.serve import (
    MISS,
    DeadlineExceeded,
    Overloaded,
    ResultCache,
    RetrievalService,
    ServiceConfig,
    ServiceStopped,
)
from repro.serve.query import Query

N_DOCS = 60
TRIPLES_PER_DOC = 4
DIM = 32


@pytest.fixture(scope="module")
def serve_retriever():
    rng = np.random.RandomState(11)
    documents = []
    rows = {}
    for doc_id in range(N_DOCS):
        title = f"Doc {doc_id}"
        triples = [
            Triple(
                subject=title,
                predicate=f"pred{rng.randint(50)}",
                object=f"obj{rng.randint(50)} tail{rng.randint(50)}",
            )
            for _ in range(TRIPLES_PER_DOC)
        ]
        documents.append(
            Document(
                doc_id=doc_id,
                title=title,
                text=" ".join(t.flatten() for t in triples),
                entity=Entity(uid=doc_id, name=title, kind="synthetic"),
            )
        )
        rows[doc_id] = triples
    store = TripleStore(Corpus(documents))
    for doc_id, triples in rows.items():
        store.put(doc_id, triples)
    retriever = SingleRetriever(DyadicEncoder(dim=DIM), store)
    retriever.refresh_embeddings()
    return retriever


class BlockingStubRetriever:
    """retrieve_many stub that blocks until released (worker-pinning)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = []

    def ensure_ready(self):
        pass

    def retrieve_many(self, questions, k=10, **kwargs):
        self.started.set()
        assert self.release.wait(5.0), "stub never released"
        self.calls.append(list(questions))
        return [[(question, k)] for question in questions]


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class TestQueryCacheKey:
    def test_normalization_merges_equivalent_spellings(self):
        a = Query("Who founded  Millwall?", "single", 5).key()
        b = Query("who founded millwall?", "single", 5).key()
        assert a == b

    def test_mode_and_k_separate_entries(self):
        base = Query("q ?", "single", 5).key()
        assert Query("q ?", "paths", 5).key() != base
        assert Query("q ?", "single", 6).key() != base

    def test_nprobe_separates_entries(self):
        """Pruned results must never answer exact requests (or vice versa)."""
        exact = Query("q ?", "single", 5).key()
        pruned = Query("q ?", "single", 5, nprobe=2).key()
        assert exact != pruned
        assert Query("q ?", "single", 5, nprobe=3).key() != pruned
        assert Query("q ?", "single", 5, nprobe=2).key() == pruned

    def test_precision_separates_entries(self):
        """A quantized answer must never serve an exact-mode request."""
        exact = Query("q ?", "single", 5).key()
        quantized = Query("q ?", "single", 5, precision="int8-rescore").key()
        assert exact != quantized
        assert (
            Query("q ?", "single", 5, precision="int8-rescore:128").key()
            != quantized
        )
        assert (
            Query("q ?", "single", 5, precision="int8-rescore:64").key()
            == quantized
        )
        assert Query("q ?", "single", 5, precision="float32").key() != exact

    def test_key_is_the_shape_plus_the_normal_form(self):
        query = Query("Q  ?", "paths", 4, nprobe=2, precision="float64")
        assert query.key() == query.shape + ("q ?",)


class TestResultCache:
    def test_hit_miss_and_stats(self):
        cache = ResultCache(capacity=4)
        assert cache.get("a") is MISS
        cache.put("a", [1, 2])
        assert cache.get("a") == [1, 2]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a's recency
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_existing_refreshes_not_evicts(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite, no eviction
        assert cache.stats.evictions == 0
        cache.put("c", 3)  # now b is LRU
        assert cache.get("b") is MISS
        assert cache.get("a") == 10

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is MISS
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# service basics
# ---------------------------------------------------------------------------


class TestServiceBasics:
    def test_retrieve_matches_direct_bulk_path(self, serve_retriever):
        question = "what links doc 3 and doc 7 ?"
        expected = serve_retriever.retrieve_many([question], k=5)[0]
        with RetrievalService(serve_retriever) as service:
            got = service.submit(question, k=5).result(10)
        assert [r.doc_id for r in got] == [r.doc_id for r in expected]
        assert [r.score for r in got] == [r.score for r in expected]

    def test_cache_hit_returns_shared_result(self, serve_retriever):
        config = ServiceConfig(cache_size=16)
        with RetrievalService(serve_retriever, config=config) as service:
            first = service.submit("warm me up ?", k=5).result(10)
            again = service.submit("Warm  me UP ?", k=5).result(10)
            assert again is first  # normalized-key hit, shared object
            snap = service.stats_snapshot()
        assert snap["cache_hits"] == 1
        assert snap["cache"]["hits"] == 1

    def test_paths_mode_without_multihop_rejected(self, serve_retriever):
        with RetrievalService(serve_retriever) as service:
            with pytest.raises(ValueError, match="paths"):
                service.submit("q ?", k=2, mode="paths")

    def test_unknown_mode_rejected(self, serve_retriever):
        with RetrievalService(serve_retriever) as service:
            with pytest.raises(ValueError, match="unknown mode"):
                service.submit("q ?", mode="bogus")

    def test_submit_before_start_and_after_stop_rejected(
        self, serve_retriever
    ):
        service = RetrievalService(serve_retriever)
        with pytest.raises(ServiceStopped):
            service.submit("q ?").result()
        service.start()
        service.stop()
        with pytest.raises(ServiceStopped):
            service.submit("q ?").result()

    def test_start_is_idempotent(self, serve_retriever):
        service = RetrievalService(serve_retriever)
        try:
            assert service.start() is service.start()
            service.submit("q ?").result()  # ServiceStopped unless still running
        finally:
            service.stop()

    def test_worker_exception_propagates_to_client(self):
        class ExplodingStub:
            def ensure_ready(self):
                pass

            def retrieve_many(self, questions, k=10, **kwargs):
                raise RuntimeError("index corrupted")

        with RetrievalService(ExplodingStub()) as service:
            request = service.submit("q ?", k=3)
            with pytest.raises(RuntimeError, match="index corrupted"):
                request.result(timeout=10)
            assert service.stats_snapshot()["failed"] == 1


class TestServeNprobe:
    class RecordingStub:
        """retrieve_many stub recording the kwargs each batch ran with."""

        def __init__(self):
            self.calls = []

        def ensure_ready(self):
            pass

        def retrieve_many(self, questions, k=10, **kwargs):
            self.calls.append((list(questions), k, kwargs))
            return [[(q, k, kwargs.get("nprobe"))] for q in questions]

    def test_nprobe_forwarded_to_retriever(self):
        stub = self.RecordingStub()
        with RetrievalService(stub) as service:
            got = service.submit("q ?", k=3, nprobe=2).result(10)
        assert got == [("q ?", 3, 2)]
        assert stub.calls[-1][2] == {"nprobe": 2, "precision": None}

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nprobe_below_one_is_a_typed_error(self, serve_retriever, bad):
        """A bad wire value is rejected at submit, not answered as if it
        were 1 and not after it has waited for a batch slot."""
        serve_retriever.build_shards(2)
        try:
            with RetrievalService(serve_retriever) as service:
                with pytest.raises(ValueError, match="nprobe must be >= 1"):
                    service.submit("obj1 tail2 ?", k=3, nprobe=bad)
                snap = service.stats_snapshot()
        finally:
            serve_retriever.detach_shards()
        assert snap["submitted"] == snap["failed"] == 0

    def test_pruned_and_exact_requests_never_share_cache(self):
        stub = self.RecordingStub()
        config = ServiceConfig(cache_size=16)
        with RetrievalService(stub, config=config) as service:
            exact = service.submit("q ?", k=3).result(10)
            pruned = service.submit("q ?", k=3, nprobe=1).result(10)
            assert exact != pruned
            assert service.stats_snapshot()["cache_hits"] == 0
            # but an identical pruned request does hit
            again = service.submit("q ?", k=3, nprobe=1).result(10)
            assert again is pruned
            assert service.stats_snapshot()["cache_hits"] == 1

    def test_differing_nprobe_does_not_coalesce(self):
        """Batches stay homogeneous in (mode, k, nprobe, precision)."""
        a = Query("q ?", "single", 3, nprobe=1)
        b = Query("q ?", "single", 3, nprobe=2)
        c = Query("q ?", "single", 3)
        assert a.shape != b.shape
        assert a.shape != c.shape
        assert c.shape == ("single", 3, None, None)
        assert Query("q ?", "paths", 3).shape != c.shape
        assert Query("q ?", "single", 4).shape != c.shape

    def test_differing_precision_does_not_coalesce(self):
        exact = Query("q ?", "single", 3)
        quant = Query("q ?", "single", 3, precision="int8-rescore:64")
        wider = Query("q ?", "single", 3, precision="int8-rescore:128")
        assert exact.shape != quant.shape
        assert quant.shape != wider.shape
        assert quant.shape == ("single", 3, None, "int8-rescore:64")


# ---------------------------------------------------------------------------
# admission control + deadlines + shutdown
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_overloaded_when_queue_full(self):
        stub = BlockingStubRetriever()
        config = ServiceConfig(max_pending=2, max_batch_size=1, max_wait_ms=0)
        with RetrievalService(stub, config=config) as service:
            blocked = service.submit("q0 ?")
            assert stub.started.wait(5.0)  # worker now pinned on q0
            queued = [service.submit(f"q{i} ?") for i in (1, 2)]
            with pytest.raises(Overloaded):
                service.submit("q3 ?")
            assert service.stats_snapshot()["rejected_overload"] == 1
            stub.release.set()
            for request in (blocked, *queued):
                assert request.result(timeout=10)
        snap = service.stats_snapshot()
        assert snap["completed"] == 3
        assert snap["submitted"] == 4

    def test_deadline_exceeded_while_queued(self):
        stub = BlockingStubRetriever()
        now = [0.0]  # the service's clock, moved by hand
        config = ServiceConfig(max_batch_size=1, max_wait_ms=0)
        service = RetrievalService(stub, config=config, clock=lambda: now[0])
        with service:
            blocked = service.submit("q0 ?")
            assert stub.started.wait(5.0)
            doomed = service.submit("q1 ?", deadline_s=0.01)
            now[0] += 0.05  # the deadline lapses while queued
            stub.release.set()
            assert blocked.result(timeout=10)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            assert service.stats_snapshot()["rejected_deadline"] == 1

    def test_stop_drain_flushes_queued_requests(self, serve_retriever):
        config = ServiceConfig(max_batch_size=4, max_wait_ms=1.0)
        service = RetrievalService(serve_retriever, config=config)
        service.start()
        requests = [
            service.submit(f"drain question {i} ?", k=3) for i in range(12)
        ]
        service.stop(drain=True)
        for request in requests:
            assert request.result(timeout=10), "drained request lost"
        assert service.stats_snapshot()["completed"] == 12

    def test_stop_without_drain_fails_queued(self):
        stub = BlockingStubRetriever()
        config = ServiceConfig(max_batch_size=1, max_wait_ms=0)
        service = RetrievalService(stub, config=config)
        service.start()
        blocked = service.submit("q0 ?")
        assert stub.started.wait(5.0)
        queued = [service.submit(f"q{i} ?") for i in (1, 2)]
        service.stop(drain=False, timeout=0.2)
        for request in queued:
            with pytest.raises(ServiceStopped):
                request.result(timeout=10)
        stub.release.set()  # unpin the worker; in-flight batch completes
        assert blocked.result(timeout=10)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


class TestServiceStats:
    def test_snapshot_shape_and_consistency(self, serve_retriever):
        with RetrievalService(serve_retriever) as service:
            for i in range(6):
                service.submit(f"stats question {i} ?", k=3).result(10)
            snap = service.stats_snapshot()
        assert snap["submitted"] == 6
        assert snap["completed"] == 6
        assert snap["failed"] == 0
        histogram = snap["batch_size_histogram"]
        assert sum(size * n for size, n in histogram.items()) == (
            snap["batched_requests"]
        )
        assert snap["qps"] > 0
        for name in ("p50", "p95", "p99", "mean", "max"):
            assert snap["latency_ms"][name] >= 0


# ---------------------------------------------------------------------------
# concurrency: determinism under coalescing + caching
# ---------------------------------------------------------------------------


class TestConcurrentDeterminism:
    N_THREADS = 8
    N_QUESTIONS = 40
    K = 5

    def _questions(self):
        return [
            f"which document mentions topic {i} and topic {i + 3} ?"
            for i in range(self.N_QUESTIONS)
        ]

    def _reference(self, retriever, questions):
        """Sequential ground truth: one retrieve_batch call per query."""
        return {
            question: retriever.retrieve_many([question], k=self.K)[0]
            for question in questions
        }

    @pytest.mark.parametrize("cache_size", [0, 512])
    def test_threaded_results_byte_identical(
        self, serve_retriever, cache_size
    ):
        questions = self._questions()
        reference = self._reference(serve_retriever, questions)
        config = ServiceConfig(
            max_batch_size=16,
            max_wait_ms=2.0,
            max_pending=self.N_THREADS * self.N_QUESTIONS,
            cache_size=cache_size,
        )
        service = RetrievalService(serve_retriever, config=config)
        mismatches = []
        errors = []

        def client(seed):
            order = list(questions)
            np.random.RandomState(seed).shuffle(order)
            for question in order:
                try:
                    got = service.submit(question, k=self.K).result(30)
                except Exception as error:  # noqa: BLE001 - recorded
                    errors.append(repr(error))
                    continue
                expected = reference[question]
                same = (
                    [r.doc_id for r in got] == [r.doc_id for r in expected]
                    and [r.score for r in got]
                    == [r.score for r in expected]  # bitwise: dyadic floats
                    and [r.matched_triple for r in got]
                    == [r.matched_triple for r in expected]
                )
                if not same:
                    mismatches.append(question)

        with service:
            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(self.N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snap = service.stats_snapshot()

        assert errors == []
        assert mismatches == []
        total = self.N_THREADS * self.N_QUESTIONS
        # zero dropped below the admission limit
        assert snap["submitted"] == total
        assert snap["completed"] == total
        assert snap["rejected_overload"] == 0
        assert snap["rejected_deadline"] == 0
        assert snap["failed"] == 0
        assert sum(
            size * n for size, n in snap["batch_size_histogram"].items()
        ) + snap["cache_hits"] == total


# ---------------------------------------------------------------------------
# paths mode (service over the multi-hop pipeline)
# ---------------------------------------------------------------------------


class TestPathsMode:
    @pytest.fixture()
    def multihop(self, retriever, encoder):
        from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
        from repro.updater.updater import QuestionUpdater

        return MultiHopRetriever(
            retriever,
            QuestionUpdater(encoder),
            MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=6),
        )

    def test_served_paths_match_direct_batch(
        self, retriever, multihop, hotpot
    ):
        questions = [q.text for q in hotpot.test[:3]]
        expected = {
            q: multihop.retrieve_paths_batch([q], k_paths=4)[0]
            for q in questions
        }
        with RetrievalService(retriever, multihop=multihop) as service:
            for question in questions:
                got = service.submit(question, k=4, mode="paths").result(30)
                want = expected[question]
                assert [p.doc_ids for p in got] == [p.doc_ids for p in want]
                assert [p.score for p in got] == [p.score for p in want]
