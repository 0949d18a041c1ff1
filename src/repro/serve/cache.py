"""LRU result cache keyed on :meth:`Query.key <repro.serve.query.Query.key>`.

Retrieval is a pure function of the query once the embedding matrix is
frozen, so the service memoizes results. The key is the query's shape —
pruned or quantized scoring is a different function, and the precision
key carries the rescore width — plus its *normalized* text: the
tokenizer applies exactly that normalization before encoding, so "Who
founded Millwall?" and "who  founded millwall?" are one computation.

Eviction is LRU over a bounded capacity and nothing else: there is no
TTL. What changes an answer is the store *generation*, never the passage
of time, and a cache lives and dies with its
:class:`~repro.serve.service.RetrievalService`, which is built per
generation (a hot reload builds a second service and drains the first) —
so no entry can outlive the matrix it was computed from. All operations
are thread-safe and O(1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: Sentinel distinguishing "miss" from a cached None value
#: (``cache.get(k) is MISS``).
MISS = object()


@dataclass
class CacheStats:
    """Counters of one cache instance (monotonically increasing)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0  # LRU capacity evictions

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
        }


class ResultCache:
    """Thread-safe LRU cache.

    ``capacity <= 0`` disables the cache entirely (every ``get`` misses,
    ``put`` is a no-op) so callers need no branching.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached value (its recency refreshed), or ``MISS``."""
        if self.capacity <= 0:
            return MISS
        with self._lock:
            value = self._entries.get(key, MISS)
            if value is MISS:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry over capacity."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
