"""Service-level observability: one :class:`ServiceStats` per service.

Everything the serving layer can cheaply observe in-process: request
outcomes (completed / cache hit / rejected / failed), the micro-batcher's
batch-size histogram (the direct evidence coalescing happens), how many
batches held the window for company (what that coalescing cost in
waiting), and request latency percentiles over a bounded recent window
(:class:`repro.perf.LatencyReservoir`). Durations come from
``time.perf_counter`` — the ``wall-clock-timing`` lint rule bans
``time.time`` for measurement in this package.

``snapshot()`` is the one view (the ``stats`` wire op, ``benchmarks/e2e``
layer metrics): a JSON-ready dict.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional

from repro.perf import LatencyReservoir


class ServiceStats:
    """Thread-safe counters + histograms for one service instance."""

    def __init__(self):
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.cache_hits = 0
        self.rejected_overload = 0
        self.rejected_deadline = 0
        self.failed = 0
        self.batches = 0
        self.batched_requests = 0  # requests served through batches
        self.windows_held = 0  # batches that waited on the clock for company
        self.batch_sizes: Dict[int, int] = {}
        self.latencies = LatencyReservoir()
        self._started_at = time.perf_counter()

    # -- recording (called by the service / workers) ---------------------
    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1
            self.completed += 1

    def record_overloaded(self) -> None:
        with self._lock:
            self.rejected_overload += 1

    def record_deadline_exceeded(self) -> None:
        with self._lock:
            self.rejected_deadline += 1

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def record_batch(self, size: int, window_held: bool) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.windows_held += window_held
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def record_completed(self, latency_s: float) -> None:
        with self._lock:
            self.completed += 1
        self.latencies.record(latency_s)

    # -- reading ---------------------------------------------------------
    def qps(self) -> float:
        """Completed requests per second since the service started."""
        elapsed = time.perf_counter() - self._started_at
        with self._lock:
            completed = self.completed
        return completed / elapsed if elapsed > 0 else 0.0

    def snapshot(self, cache_stats: Optional[dict] = None) -> dict:
        """One consistent machine-readable view of the whole service."""
        latency = self.latencies.percentiles()
        with self._lock:
            out = {
                "submitted": self.submitted,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
                "rejected_overload": self.rejected_overload,
                "rejected_deadline": self.rejected_deadline,
                "failed": self.failed,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "windows_held": self.windows_held,
                "mean_batch_size": (
                    self.batched_requests / self.batches
                    if self.batches
                    else 0.0
                ),
                "batch_size_histogram": dict(sorted(self.batch_sizes.items())),
            }
        out["qps"] = self.qps()
        out["latency_ms"] = {
            name: seconds * 1e3 for name, seconds in latency.items()
        }
        if cache_stats is not None:
            out["cache"] = cache_stats
        return out


#: snapshot() keys that aggregate across workers by plain summation.
_SUMMED_KEYS = (
    "submitted",
    "completed",
    "cache_hits",
    "rejected_overload",
    "rejected_deadline",
    "failed",
    "batches",
    "batched_requests",
    "windows_held",
)


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-worker :meth:`ServiceStats.snapshot` dicts into one view.

    Counters and qps sum; batch-size histograms merge; latency
    percentiles cannot be combined exactly from per-worker quantiles, so
    ``latency_ms`` reports the element-wise worst (max) across workers —
    a conservative fleet bound. The front door's own end-to-end reservoir
    is the authoritative percentile source; this merge exists so worker
    internals (batching efficacy, rejections, cache hits) stay observable
    from one endpoint.
    """
    merged: dict = {key: 0 for key in _SUMMED_KEYS}
    histogram: Dict[int, int] = {}
    latency: Dict[str, float] = {}
    qps = 0.0
    n = 0
    for snap in snapshots:
        if not snap:
            continue
        n += 1
        for key in _SUMMED_KEYS:
            merged[key] += int(snap.get(key, 0))
        for size, count in (snap.get("batch_size_histogram") or {}).items():
            size = int(size)
            histogram[size] = histogram.get(size, 0) + int(count)
        for name, value in (snap.get("latency_ms") or {}).items():
            latency[name] = max(latency.get(name, 0.0), float(value))
        qps += float(snap.get("qps", 0.0))
    merged["workers"] = n
    merged["mean_batch_size"] = (
        merged["batched_requests"] / merged["batches"]
        if merged["batches"]
        else 0.0
    )
    merged["batch_size_histogram"] = dict(sorted(histogram.items()))
    merged["latency_ms"] = latency
    merged["qps"] = qps
    return merged
