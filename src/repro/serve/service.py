"""The in-process retrieval service: front door, worker, lifecycle.

:class:`RetrievalService` turns the vectorized retriever into a
traffic-handling layer: many client threads submit queries concurrently;
one worker thread drains the bounded request queue in dynamically
coalesced micro-batches (more CPUs are more worker *processes*,
:mod:`repro.net`) and answers each batch with one
:meth:`~repro.retriever.single.SingleRetriever.retrieve_many` (single-hop)
or :meth:`~repro.pipeline.multihop.MultiHopRetriever.retrieve_paths_batch`
(multi-hop) call.

Guarantees:

* **Bounded latency, explicit rejection** — a full queue raises
  :class:`Overloaded` at submit time; a request whose deadline lapses
  before the worker reaches it fails with :class:`DeadlineExceeded`.
* **Determinism** — coalescing never changes answers: a batch is scored
  by the same single-matmul path as a sequential ``retrieve_batch``
  call, so results are identical to serving each request alone (exactly
  so under a batch-invariant encoder; see ``retrieve_paths_batch``).
* **Graceful shutdown** — ``stop()`` (or leaving the context manager)
  refuses new work, flushes every in-flight and queued request, then
  joins the worker. ``stop(drain=False)`` fails queued requests with
  :class:`ServiceStopped` instead.

Results returned for identical (normalized) queries may be shared
objects served from the LRU cache — treat them as read-only. The cache
has no expiry: a service (and so its cache) is built per store
generation, which is the only thing that changes an answer.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.pipeline.multihop import MultiHopRetriever
from repro.precision import PrecisionLike
from repro.retriever.single import SingleRetriever
from repro.serve.batching import BatchQueue, PendingRequest
from repro.serve.cache import MISS, ResultCache
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServiceStopped,
)
from repro.serve.query import Query
from repro.serve.stats import ServiceStats


@dataclass
class ServiceConfig:
    """Sizing and behaviour knobs of one service instance."""

    max_batch_size: int = 16  # flush when this many compatible requests wait
    max_wait_ms: float = 2.0  # ... or a batch with company waited this long
    max_pending: int = 256  # admission limit (Overloaded beyond this)
    cache_size: int = 1024  # LRU capacity; <= 0 disables caching
    default_k: int = 8  # results per request unless overridden


class RetrievalService:
    """Concurrent micro-batching front door over the trained retrievers.

    ``clock`` must be monotonic and drives deadlines and the batch
    window; it is injectable so tests control time. Latency
    *measurement* always uses ``time.perf_counter``.
    """

    def __init__(
        self,
        retriever: SingleRetriever,
        multihop: Optional[MultiHopRetriever] = None,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.retriever = retriever
        self.multihop = multihop
        self.config = config or ServiceConfig()
        if self.config.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self._clock = clock
        self._queue = BatchQueue(self.config.max_pending, clock=clock)
        self._cache = ResultCache(self.config.cache_size)
        self.stats = ServiceStats()
        self._thread: Optional[threading.Thread] = None
        self._state_lock = threading.Lock()
        self._running = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "RetrievalService":
        """Spawn the worker thread (idempotent).

        The retriever's scoring matrices are built here, so the first
        request never pays the build — and never pays encoding at all
        when the retriever was attached to a persisted embedding store.
        """
        with self._state_lock:
            if self._running:
                return self
            self.retriever.ensure_ready()
            self._running = True
            self._thread = threading.Thread(
                target=self._worker_loop, name="repro-serve-0", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Refuse new work, settle everything pending, join the worker.

        ``drain=True`` (default) flushes every queued request through the
        normal batch path before the worker exits; ``drain=False`` fails
        queued requests with :class:`ServiceStopped` immediately.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            self._queue.stop()
            if not drain:
                for request in self._queue.drain_remaining():
                    request.fail(
                        ServiceStopped("service stopped before serving")
                    )
                    self.stats.record_failed()
            thread, self._thread = self._thread, None
        thread.join()

    def __enter__(self) -> "RetrievalService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def pending(self) -> int:
        """Requests currently queued (excludes the batch being served)."""
        return len(self._queue)

    # -- submission ------------------------------------------------------
    def submit(
        self,
        query: Union[str, Query],
        k: Optional[int] = None,
        mode: str = "single",
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> PendingRequest:
        """Enqueue one request and return its future immediately.

        ``query`` is a :class:`Query`, or its text with the other fields
        as keywords (read only then; a deadline travels in a
        :class:`Query`); a malformed field raises here.
        Raises :class:`Overloaded` when admission control rejects it and
        :class:`ServiceStopped` when the service is not running. A cache
        hit completes the returned request synchronously.
        """
        if not isinstance(query, Query):
            query = Query(query, mode, k, nprobe, precision)
        if query.mode == "paths" and self.multihop is None:
            raise ValueError(
                "service was built without a MultiHopRetriever; "
                "mode='paths' is unavailable"
            )
        with self._state_lock:
            if not self._running:
                raise ServiceStopped("service is not running; call start()")
        if query.k is None:
            query = dataclasses.replace(query, k=self.config.default_k)
        budget = query.deadline_s
        deadline = None if budget is None else self._clock() + budget
        request = PendingRequest(query, deadline)
        self.stats.record_submitted()
        cached = self._cache.get(query.key())
        if cached is not MISS:
            request.complete(cached)
            self.stats.record_cache_hit()
            return request
        try:
            self._queue.put(request)
        except Overloaded:
            self.stats.record_overloaded()
            raise
        return request

    # -- observability ---------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Service + cache counters as one JSON-ready dict."""
        return self.stats.snapshot(self._cache.stats.snapshot())

    # -- worker internals ------------------------------------------------
    def _worker_loop(self) -> None:
        max_wait = self.config.max_wait_ms / 1e3
        while True:
            taken = self._queue.take_batch(
                self.config.max_batch_size, max_wait
            )
            if taken is None:
                return
            self._execute(*taken)

    def _execute(
        self, batch: List[PendingRequest], window_held: bool
    ) -> None:
        """Serve one homogeneous batch with a single bulk retrieval call."""
        now = self._clock()
        live: List[PendingRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                request.fail(
                    DeadlineExceeded(
                        f"deadline passed before batch execution "
                        f"({request.query.text[:60]!r})"
                    )
                )
                self.stats.record_deadline_exceeded()
            else:
                live.append(request)
        if not live:
            return
        self.stats.record_batch(len(live), window_held=window_held)
        # coalesce duplicate (normalized) questions: one scored row can
        # answer several waiting clients
        row_of: Dict[Any, int] = {}
        questions: List[str] = []
        for request in live:
            key = request.query.key()
            if key not in row_of:
                row_of[key] = len(questions)
                questions.append(request.query.text)
        query = live[0].query  # the batch shares its shape
        try:
            if query.mode == "single":
                results = self.retriever.retrieve_many(
                    questions,
                    k=query.k,
                    nprobe=query.nprobe,
                    precision=query.precision,
                )
            else:
                results = self.multihop.retrieve_paths_batch(
                    questions,
                    k_paths=query.k,
                    nprobe=query.nprobe,
                    precision=query.precision,
                )
        except Exception as error:  # surface to every waiting client
            for request in live:
                request.fail(error)
                self.stats.record_failed()
            return
        finished_at = time.perf_counter()
        for request in live:
            key = request.query.key()
            value = results[row_of[key]]
            self._cache.put(key, value)
            request.complete(value)
            self.stats.record_completed(finished_at - request.submitted_at)
