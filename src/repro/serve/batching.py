"""Dynamic micro-batching: pending requests + the coalescing queue.

The core serving lever (the one Baleen/MDR-style systems pull): many
client threads each submit one question, and a worker drains them as one
``retrieve_batch``/``retrieve_paths_batch`` call. The batch window is
dynamic, and it is held only for a request that has company: ``put``
marks a request *crowded* when it arrives while other requests are
queued or while the worker is out serving a batch. A batch led by a
crowded request flushes as soon as ``max_batch_size`` requests of its
shape are waiting, when it has waited ``max_wait`` seconds, or when a
request of another shape is queued, whichever comes first. A batch led
by a request that found the worker idle flushes at once with whatever
compatible requests are already queued: a lone request pays no window,
and under load, where requests keep arriving while a batch is out,
batches still coalesce. The worker never waits with work in hand: under
mixed traffic the company a window waits for would queue behind work
that is already there, so the window ends and that work is served next.

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
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.serve.errors import Overloaded, ServiceStopped
from repro.serve.query import Query, Shape


class PendingRequest:
    """One in-flight request: its query, deadline, and a waitable slot.

    Acts as the future returned to the submitting thread: ``result()``
    blocks until a worker (or the shutdown path) settles the request.
    ``submitted_at`` is a ``perf_counter`` timestamp for latency stats;
    ``deadline`` is an absolute reading of the *service* clock (monotonic,
    injectable) or None for no deadline. ``crowded`` is set by
    :meth:`BatchQueue.put`: the request arrived while the worker had
    other work, so a batch it leads holds the window.
    """

    __slots__ = (
        "query",
        "deadline",
        "submitted_at",
        "crowded",
        "_done",
        "_result",
        "_error",
    )

    def __init__(self, query: Query, deadline: Optional[float]):
        self.query = query
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self.crowded = False
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
    """Bounded request queue one worker drains in coalesced batches."""

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
        # a batch is out: take_batch returned it and the worker has not
        # called take_batch again
        self._batch_out = False

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
            request.crowded = self._batch_out or bool(self._items)
            self._items.append(request)
            self._cond.notify()

    def take_batch(
        self, max_size: int, max_wait: float
    ) -> Optional[Tuple[List[PendingRequest], bool]]:
        """The next coalesced batch and whether it waited on the clock for
        company, or None when stopped and drained.

        Blocks until at least one request waits. The first request fixes
        the query shape and compatible requests already queued join
        immediately. Only when the first request is crowded does the
        worker then hold the window open up to ``max_wait`` (service
        clock) for more; a batch led by a request that found the worker
        idle flushes at once. The window also ends the moment the queue
        holds a request of another shape: the batch is served as it is,
        and the oldest waiting request leads the next one, so the FIFO
        order of first requests holds. Under single-shape traffic the
        queue is then empty, and nothing changes. During shutdown the
        window collapses so draining finishes promptly.
        """
        with self._cond:
            self._batch_out = False
            while not self._items:
                if self._stopping:
                    return None
                self._cond.wait()
            first = self._items.popleft()
            batch = [first]
            shape = first.query.shape
            window_ends = self._clock() + (max_wait if first.crowded else 0.0)
            held = False
            while len(batch) < max_size:
                taken = self._take_compatible(shape)
                if taken is not None:
                    batch.append(taken)
                    continue
                # anything still queued is of another shape: serve now
                if self._stopping or self._items:
                    break
                remaining = window_ends - self._clock()
                if remaining <= 0:
                    break
                held = True
                # timed wait capped at 50ms: an injected fake clock
                # controls the window accounting, not the OS-level sleep,
                # so cap the real wait and re-check the window each wake
                self._cond.wait(timeout=min(remaining, 0.05))
            self._batch_out = True
            return batch, held

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
