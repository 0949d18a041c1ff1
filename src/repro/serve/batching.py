"""Dynamic micro-batching: pending requests + the coalescing queue.

The core serving lever (the one Baleen/MDR-style systems pull): many
client threads each submit one question, and a worker drains them as one
``retrieve_batch``/``retrieve_paths_batch`` call. The batch window is
dynamic — a worker flushes as soon as ``max_batch_size`` requests of the
same shape are waiting, or when the oldest has waited ``max_wait``
seconds, whichever comes first. Under light load requests pay at most
``max_wait`` extra latency; under heavy load batches fill instantly and
the window never matters.

Admission control lives at the queue mouth: ``put`` rejects with
:class:`~repro.serve.errors.Overloaded` once ``max_pending`` requests
wait, which bounds queue latency instead of letting it grow without
limit. Batches are homogeneous: only requests of the same
:attr:`Query.shape <repro.serve.query.Query.shape>` — (mode, k, nprobe,
precision key) — coalesce, so one underlying bulk call serves every
member, and quantized, pruned and exact requests never share a batch.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.serve.errors import Overloaded, ServiceStopped
from repro.serve.query import Query, Shape


class PendingRequest:
    """One in-flight request: its query, deadline, and a waitable slot.

    Acts as the future returned to the submitting thread: ``result()``
    blocks until a worker (or the shutdown path) settles the request.
    ``submitted_at`` is a ``perf_counter`` timestamp for latency stats;
    ``deadline`` is an absolute reading of the *service* clock (monotonic,
    injectable) or None for no deadline.
    """

    __slots__ = (
        "query",
        "deadline",
        "submitted_at",
        "_done",
        "_result",
        "_error",
    )

    def __init__(self, query: Query, deadline: Optional[float]):
        self.query = query
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def complete(self, result: Any) -> None:
        self._result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until settled; raise the stored error on failure."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request not completed within {timeout} seconds"
            )
        if self._error is not None:
            raise self._error
        return self._result


class BatchQueue:
    """Bounded request queue workers drain in coalesced batches."""

    def __init__(
        self,
        max_pending: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        self._clock = clock
        self._items: Deque[PendingRequest] = deque()
        self._cond = threading.Condition()
        self._stopping = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def put(self, request: PendingRequest) -> None:
        """Admit one request or reject immediately (explicit backpressure)."""
        with self._cond:
            if self._stopping:
                raise ServiceStopped("service is not accepting requests")
            if len(self._items) >= self.max_pending:
                raise Overloaded(
                    f"pending queue full ({self.max_pending} requests); "
                    "back off and retry"
                )
            self._items.append(request)
            self._cond.notify()

    def take_batch(
        self, max_size: int, max_wait: float
    ) -> Optional[List[PendingRequest]]:
        """The next coalesced batch, or None when stopped and drained.

        Blocks until at least one request waits. The first request fixes
        the query shape; compatible requests already queued join
        immediately, then the worker holds the window open up to
        ``max_wait`` (service clock) for more, leaving incompatible
        requests queued for the next cycle. During shutdown the window
        collapses so draining finishes promptly.
        """
        with self._cond:
            while not self._items:
                if self._stopping:
                    return None
                self._cond.wait()
            first = self._items.popleft()
            batch = [first]
            shape = first.query.shape
            window_ends = self._clock() + max_wait
            while len(batch) < max_size:
                taken = self._take_compatible(shape)
                if taken is not None:
                    batch.append(taken)
                    continue
                if self._stopping:
                    break
                remaining = window_ends - self._clock()
                if remaining <= 0:
                    break
                # timed wait capped at 50ms: an injected fake clock
                # controls the window accounting, not the OS-level sleep,
                # so cap the real wait and re-check the window each wake
                self._cond.wait(timeout=min(remaining, 0.05))
            return batch

    def _take_compatible(self, shape: Shape) -> Optional[PendingRequest]:
        """Pop the oldest queued request of this query shape."""
        for index, item in enumerate(self._items):
            if item.query.shape == shape:
                del self._items[index]
                return item
        return None

    def stop(self) -> None:
        """Refuse new work and wake every blocked worker."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()

    def drain_remaining(self) -> List[PendingRequest]:
        """Remove and return everything still queued (shutdown path)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            return items
