"""In-memory spans recorded from the benchmark's side of each layer.

A :class:`Tracer` keeps spans ``(name, start, end, parent, request,
count)`` in a list and writes them out once, when the traced run ends.
Spans are opened by :meth:`Tracer.span` around a call the benchmark
makes, or by :func:`instrument`, which rebinds a *public method on one
instance* (``encoder.encode_numpy``, ``plan.search``, ...) to a wrapper
that opens a span around it — so calls the program makes internally
(``retrieve_batch`` calling ``plan.search``) nest with their true
intervals while nothing under ``src/`` changes. Spans inside the program
itself are a later issue.

A layer's self time is its span's duration minus the part of that
interval its child spans cover; children of one parent on one thread do
not overlap, so that part is the sum of the children's durations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.storage.atomic import atomic_write_json


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    name: str
    start: float
    end: float
    parent: int  # index of the causing span, -1 for a root
    request: int  # spans of one request share this identifier
    count: int  # work done inside (rows, texts, ...), 0 when unknown


class Tracer:
    """Thread-aware span recorder (one open-span stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, request: int = -1, count: int = 0
    ) -> Iterator[None]:
        """Record the enclosed block; nests under this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request < 0 and parent >= 0:
            request = self.spans[parent].request
        record = Span(name, time.perf_counter(), 0.0, parent, request, count)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(
        self, name: str, start: float, end: float, parent: int, request: int
    ) -> None:
        """Record a span whose interval is known after the fact."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, request, 0))

    # -- reading -----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the time its children cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def by_request(self) -> Dict[int, List[int]]:
        """Span indices grouped by request identifier."""
        grouped: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            grouped.setdefault(span.request, []).append(index)
        return grouped

    def write(self, path: Path, loaded: Sequence[Span] = ()) -> None:
        """Dump the spans as one JSON document (columns, then rows).

        ``spans`` are this tracer's (the replayed requests; ``parent``
        indexes into the same list); ``loaded_spans`` are a sample of the
        spans recorded under load, where requests share batches and so
        carry no request identifier.
        """
        every = list(self.spans) + list(loaded)
        origin = min((span.start for span in every), default=0.0)

        def rows(spans: Sequence[Span]) -> List[list]:
            return [
                [
                    span.name,
                    (span.start - origin) * 1e3,
                    (span.end - origin) * 1e3,
                    span.parent,
                    span.request,
                    span.count,
                ]
                for span in spans
            ]

        atomic_write_json(
            path,
            {
                "columns": [
                    "name", "start_ms", "end_ms", "parent", "request", "count",
                ],
                "spans": rows(self.spans),
                "loaded_spans": rows(loaded),
            },
        )


def _rows(value: Any) -> int:
    """Work size of a call's first argument (rows / texts), 0 if unsized."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    if isinstance(value, (list, tuple)):
        return len(value)
    return 1 if isinstance(value, str) else 0


def instrument(
    tracer: Tracer, target: Any, method: str, name: str
) -> Callable[[], None]:
    """Wrap ``target.method`` (on this instance only) in a span.

    Returns the function that removes the wrapper again.
    """
    original = getattr(target, method)

    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name, count=_rows(args[0]) if args else 0):
            return original(*args, **kwargs)

    setattr(target, method, traced)

    def restore() -> None:
        delattr(target, method)

    return restore


@dataclass
class RequestBreakdown:
    """One traced request: root duration and per-stage self times."""

    total_s: float
    root_self_s: float
    stage_self_s: Dict[str, float]
    stage_calls: Dict[str, int]
    stage_rows: Dict[str, List[int]]  # ``count`` of each call, in order


def breakdowns(tracer: Tracer, root_name: str) -> List[RequestBreakdown]:
    """Per request rooted at a ``root_name`` span: where its time went."""
    own = tracer.self_times()
    out: List[RequestBreakdown] = []
    for indices in tracer.by_request().values():
        root: Optional[int] = None
        for index in indices:
            span = tracer.spans[index]
            if span.parent < 0 and span.name == root_name:
                root = index
                break
        if root is None:
            continue
        record = RequestBreakdown(
            total_s=tracer.spans[root].end - tracer.spans[root].start,
            root_self_s=own[root],
            stage_self_s={},
            stage_calls={},
            stage_rows={},
        )
        for index in indices:
            if index == root:
                continue
            span = tracer.spans[index]
            record.stage_self_s[span.name] = (
                record.stage_self_s.get(span.name, 0.0) + own[index]
            )
            record.stage_calls[span.name] = (
                record.stage_calls.get(span.name, 0) + 1
            )
            record.stage_rows.setdefault(span.name, []).append(span.count)
        out.append(record)
    return out
