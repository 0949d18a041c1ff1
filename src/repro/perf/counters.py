"""Process-wide retrieval performance instrumentation.

The vectorized retrieval path collapses per-document Python loops into a
handful of matmuls, which makes the speedup easy to claim and hard to
*see*. This module keeps the cheap observables — encoder invocations,
matmul wall-clock, documents/triples scored — in one mutable counter
object that the retrievers increment and the CLI / benchmarks print.

Counters are guarded by a lock: the serving layer (``repro.serve``)
drives retrieval from multiple worker threads, and ``float`` accumulation
(``matmul_seconds``) is a read-modify-write that *does* lose updates under
contention, unlike plain int increments. The lock is uncontended on the
single-threaded paths and costs nanoseconds next to a matmul.

:class:`LatencyReservoir` is the shared percentile primitive: a bounded
window of ``perf_counter`` durations that the service stats turn into
p50/p95/p99 summaries.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, List, Sequence


@dataclass
class PerfCounters:
    """Cumulative counters for one process (reset explicitly).

    Thread-safe: every mutation and read-out happens under one lock, so
    concurrent service workers never lose increments and ``snapshot()``
    is always internally consistent.
    """

    encode_calls: int = 0  # encoder forward batches
    texts_encoded: int = 0  # total sentences through the encoder
    tokens_encoded: int = 0  # tokens through the encoder forward
    encode_seconds: float = 0.0  # wall-clock inside encode_numpy
    matmul_calls: int = 0  # batched scoring products
    matmul_seconds: float = 0.0  # wall-clock inside those products
    queries: int = 0  # query vectors scored
    docs_scored: int = 0  # (query, document) score pairs produced
    triples_scored: int = 0  # (query, triple) score pairs produced

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record_encode(self, n_texts: int) -> None:
        with self._lock:
            self.encode_calls += 1
            self.texts_encoded += n_texts

    def record_encode_tokens(self, n_tokens: int, seconds: float) -> None:
        with self._lock:
            self.tokens_encoded += n_tokens
            self.encode_seconds += seconds

    def encoder_throughput(self) -> Dict[str, float]:
        """Token throughput of the encoder so far (bench/run metadata)."""
        with self._lock:
            tokens, seconds = self.tokens_encoded, self.encode_seconds
        return {
            "tokens": tokens,
            "seconds": seconds,
            "tokens_per_sec": tokens / seconds if seconds > 0 else 0.0,
        }

    def record_scoring(
        self, n_queries: int, n_docs: int, n_triples: int, seconds: float
    ) -> None:
        """One scoring call: ``n_docs`` / ``n_triples`` are the (query,
        document) / (query, triple) pairs it produced, summed over its
        queries — pruned queries score different shard subsets, so a
        per-query figure times ``n_queries`` would over-count."""
        with self._lock:
            self.matmul_calls += 1
            self.matmul_seconds += seconds
            self.queries += n_queries
            self.docs_scored += n_docs
            self.triples_scored += n_triples

    def reset(self) -> None:
        with self._lock:
            for f in fields(self):
                setattr(self, f.name, type(getattr(self, f.name))())

    def snapshot(self) -> dict:
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """One human-readable block (CLI ``--stats`` output)."""
        snap = self.snapshot()
        per_query = (
            snap["matmul_seconds"] / snap["queries"] * 1e3
            if snap["queries"]
            else 0.0
        )
        tokens_per_sec = (
            snap["tokens_encoded"] / snap["encode_seconds"]
            if snap["encode_seconds"] > 0
            else 0.0
        )
        return "\n".join(
            [
                "perf counters:",
                f"  encode calls:    {snap['encode_calls']}"
                f" ({snap['texts_encoded']} texts)",
                f"  encoder tokens:  {snap['tokens_encoded']}"
                f" ({snap['encode_seconds'] * 1e3:.1f} ms,"
                f" {tokens_per_sec:.0f} tokens/s)",
                f"  scoring matmuls: {snap['matmul_calls']}"
                f" ({snap['matmul_seconds'] * 1e3:.1f} ms total,"
                f" {per_query:.3f} ms/query)",
                f"  queries scored:  {snap['queries']}",
                f"  docs scored:     {snap['docs_scored']}",
                f"  triples scored:  {snap['triples_scored']}",
            ]
        )


#: The process-wide counter instance the retrievers increment.
COUNTERS = PerfCounters()


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample list.

    ``q`` in [0, 100]. Empty input returns 0.0 so stats snapshots stay
    total without special-casing an idle service.
    """
    if not sorted_samples:
        return 0.0
    if q <= 0:
        return float(sorted_samples[0])
    rank = max(1, -(-len(sorted_samples) * q // 100))  # ceil, nearest-rank
    return float(sorted_samples[min(int(rank) - 1, len(sorted_samples) - 1)])


#: samples a :class:`LatencyReservoir` keeps
CAPACITY = 65536


class LatencyReservoir:
    """Bounded, thread-safe window of duration samples (seconds).

    Keeps the most recent ``CAPACITY`` samples in a ring; percentiles are
    computed over that window. Bounded so a long-lived service cannot
    grow without limit, recent-biased so the numbers track current load.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._cursor = 0  # ring write position once full
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            if len(self._samples) < CAPACITY:
                self._samples.append(seconds)
            else:
                self._samples[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % CAPACITY

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentiles(self) -> Dict[str, float]:
        """``{"p50", "p95", "p99", "mean", "max"}`` over the current window."""
        with self._lock:
            window = sorted(self._samples)
        out = {f"p{q:g}": percentile(window, q) for q in (50.0, 95.0, 99.0)}
        out["mean"] = sum(window) / len(window) if window else 0.0
        out["max"] = window[-1] if window else 0.0
        return out


class _Timer:
    """Callable returning the elapsed seconds (frozen at block exit)."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._stop: float = 0.0

    def freeze(self) -> None:
        self._stop = time.perf_counter()

    def __call__(self) -> float:
        return (self._stop or time.perf_counter()) - self._start


@contextmanager
def time_block():
    """``with time_block() as elapsed: ...`` — ``elapsed()`` in seconds."""
    timer = _Timer()
    try:
        yield timer
    finally:
        timer.freeze()
