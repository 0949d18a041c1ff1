"""LRU + TTL result cache keyed on normalized query text.

Retrieval is a pure function of (query text, mode, k) once the embedding
matrix is frozen, so the service memoizes results. Keys are *normalized*
query text (:func:`repro.text.tokenize.normalize` — lower-cased,
whitespace-collapsed): the tokenizer applies exactly that normalization
before encoding, so two raw strings with the same normal form are
guaranteed to produce identical retrieval results and may safely share a
cache entry ("Who founded Millwall?" and "who  founded millwall?" are
one computation, not two).

Eviction is LRU over a bounded capacity; entries optionally expire after
a TTL measured on an injectable monotonic clock (tests pass a fake
clock; production uses ``time.monotonic`` — wall-clock ``time.time`` is
banned here by the ``wall-clock-timing`` lint rule because it jumps under
NTP adjustments). All operations are thread-safe and O(1).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.text.tokenize import normalize

#: Sentinel distinguishing "miss" from a cached None value.
_MISS = object()

#: Oldest entries examined per ``put`` when sweeping expired entries.
#: Bounded so an insert stays O(1); a steady trickle of inserts still
#: reclaims dead weight faster than it accumulates.
_SWEEP_LIMIT = 8


def query_cache_key(
    question: str,
    mode: str,
    k: int,
    nprobe: Optional[int] = None,
    precision: Optional[str] = None,
) -> Tuple[str, int, Optional[int], Optional[str], str]:
    """The cache key of one request:
    (mode, k, nprobe, precision, normalized question).

    ``nprobe`` participates because pruned sharded retrieval is a
    *different* pure function of the query than exact retrieval — results
    under ``nprobe=2`` must never be served to an ``nprobe=None`` caller.
    ``precision`` participates for the same reason: an int8-rescore
    answer must never be served to an exact-mode request (and vice
    versa). Pass :meth:`repro.precision.Precision.key` — it includes the
    rescore width, which changes quantized top-k.
    """
    return (mode, int(k), nprobe, precision, normalize(question))


@dataclass
class CacheStats:
    """Counters of one cache instance (monotonically increasing)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0  # LRU capacity evictions
    expirations: int = 0  # TTL expiries observed on access

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_ratio": self.hit_ratio,
        }


class ResultCache:
    """Thread-safe LRU cache with optional TTL expiry.

    ``capacity <= 0`` disables the cache entirely (every ``get`` misses,
    ``put`` is a no-op) so callers need no branching. ``ttl_s=None``
    means entries never expire. ``clock`` must be monotonic; it exists as
    a parameter so tests can drive expiry deterministically.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._entries: "OrderedDict[Hashable, Tuple[float, Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached value, or the module-level ``MISS`` sentinel.

        A hit refreshes the entry's recency; an expired entry counts as
        both an expiration and a miss (it is removed on observation).
        """
        if self.capacity <= 0:
            return _MISS
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return _MISS
            stored_at, value = entry
            if self.ttl_s is not None and (
                self._clock() - stored_at >= self.ttl_s
            ):
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                return _MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry over capacity.

        Each insert also sweeps up to ``_SWEEP_LIMIT`` of the *oldest*
        entries for TTL expiry. Without the sweep, expired entries that
        are never looked up again ("dead weight") survive until capacity
        pressure evicts them — and get mis-counted as ``evictions`` when
        they do. Bounded work per insert keeps ``put`` O(1).
        """
        if self.capacity <= 0:
            return
        with self._lock:
            now = self._clock()
            if self.ttl_s is not None:
                # examine the LRU end only: recency order approximates
                # age order, and the bound keeps the insert O(1)
                window = [
                    old_key
                    for old_key, _ in zip(self._entries, range(_SWEEP_LIMIT))
                ]
                for old_key in window:
                    stored_at, _ = self._entries[old_key]
                    if now - stored_at >= self.ttl_s:
                        del self._entries[old_key]
                        self.stats.expirations += 1
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (now, value)
            while len(self._entries) > self.capacity:
                _, (stored_at, _) = self._entries.popitem(last=False)
                # an already-expired entry leaving under capacity pressure
                # is an expiration, not a genuine LRU eviction
                if self.ttl_s is not None and now - stored_at >= self.ttl_s:
                    self.stats.expirations += 1
                else:
                    self.stats.evictions += 1


#: Public alias of the miss sentinel (``cache.get(k) is MISS``).
MISS = _MISS
