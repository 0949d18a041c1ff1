"""Load generation: channels to the system, loops that drive them, rounds.

A *channel* is one caller's connection to the system under test —
:class:`InprocChannel` submits to an in-process
:class:`~repro.serve.RetrievalService`, :class:`WireChannel` pipelines
frames over one TCP connection to a front door or a worker. Both take
``send(tag, question, variant)`` and give replies back from
``poll(timeout)``, so the three loops are written once:

* :func:`closed_loop` — each channel keeps a fixed window of requests in
  flight and sends the next one only when a reply arrives (callers of a
  retriever — a reader, a QA pipeline — wait for their reply, so a slow
  system receives less load);
* ``window=1`` on one channel is the *solo* phase;
* :func:`paced_loop` — open loop: requests are due on a fixed schedule
  whatever the system does, latency counts from the due time, and how
  late the generator itself ran is reported.

Timed phases are short *rounds* (solo and loaded rounds alternate, so
each phase's rounds are spread over the whole run); a reported rate or
percentile is the median over the rounds.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net import recv_frame, send_frame, wire_to_results
from repro.perf import percentile
from repro.serve import RetrievalService, ServeError

ROUNDS = 5
#: threads / connections in a loaded phase
CLIENTS = 2
#: distinct hot questions a workload with ``hot_share`` repeats
HOT_SIZE = 128
#: a reply that takes longer than this counts as a timeout (failed)
REPLY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Variant:
    """Per-request retrieval options (None = the service default)."""

    nprobe: Optional[int] = None
    precision: Optional[str] = None

    @property
    def exact(self) -> bool:
        return self.nprobe is None and self.precision is None


@dataclass(frozen=True)
class Traffic:
    """The request mix of one workload."""

    mode: str = "single"  # "single" or "paths"
    k: int = 10
    variants: Tuple[Variant, ...] = (Variant(),)  # loaded-phase rotation
    hot_share: float = 0.0  # share of loaded requests repeating a hot one
    window: int = 8  # requests in flight per client
    paced_rate: float = 100.0  # ops/s of the open-loop phase


@dataclass
class Reply:
    tag: int
    ok: bool
    results: Any  # decoded result dataclasses, or the error text
    generation: Optional[int] = None


class InprocChannel:
    """One caller of an in-process service (replies in submission order)."""

    def __init__(self, service: RetrievalService, traffic: Traffic):
        self.service = service
        self.traffic = traffic
        self._pending: Deque[Tuple[int, Any]] = deque()

    def send(self, tag: int, question: str, variant: Variant) -> None:
        try:
            request = self.service.submit(
                question,
                k=self.traffic.k,
                mode=self.traffic.mode,
                nprobe=variant.nprobe,
                precision=variant.precision,
            )
        except ServeError as error:  # Overloaded / ServiceStopped
            request = error
        self._pending.append((tag, request))

    def poll(self, timeout: Optional[float]) -> Optional[Reply]:
        if not self._pending:
            return None
        tag, request = self._pending[0]
        if isinstance(request, ServeError):
            self._pending.popleft()
            return Reply(tag, False, repr(request))
        try:
            results = request.result(
                REPLY_TIMEOUT_S if timeout is None else timeout
            )
        except TimeoutError as error:
            if timeout is not None:
                return None  # not ready yet; still pending
            self._pending.popleft()
            return Reply(tag, False, repr(error))
        except ServeError as error:
            self._pending.popleft()
            return Reply(tag, False, repr(error))
        self._pending.popleft()
        return Reply(tag, True, results)

    def in_flight(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        self._pending.clear()


class WireChannel:
    """One TCP connection with several frames in flight."""

    def __init__(self, address: Tuple[str, int], traffic: Traffic):
        self.traffic = traffic
        self._sock = socket.create_connection(
            tuple(address), timeout=REPLY_TIMEOUT_S
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._outstanding = 0

    def send(self, tag: int, question: str, variant: Variant) -> None:
        frame: Dict[str, Any] = {
            "op": "query",
            "id": tag,
            "question": question,
            "mode": self.traffic.mode,
            "k": self.traffic.k,
        }
        if variant.nprobe is not None:
            frame["nprobe"] = variant.nprobe
        if variant.precision is not None:
            frame["precision"] = variant.precision
        send_frame(self._sock, frame)
        self._outstanding += 1

    def poll(self, timeout: Optional[float]) -> Optional[Reply]:
        if not self._outstanding:
            return None
        if timeout is not None:
            ready, _, _ = select.select([self._sock], [], [], timeout)
            if not ready:
                return None
        try:
            response = recv_frame(self._sock)
        except (OSError, RuntimeError) as error:  # timeout / ProtocolError
            self._outstanding = 0
            return Reply(-1, False, repr(error))
        if response is None:
            self._outstanding = 0
            return Reply(-1, False, "connection closed")
        self._outstanding -= 1
        tag = int(response.get("id", -1))
        if not response.get("ok"):
            return Reply(tag, False, repr(response.get("error")))
        return Reply(
            tag,
            True,
            wire_to_results(self.traffic.mode, response["results"]),
            generation=response.get("generation"),
        )

    def in_flight(self) -> int:
        return self._outstanding

    def close(self) -> None:
        self._sock.close()


# -- how fast the host is right now -------------------------------------------


class HostSpeed:
    """How much slower than a quiet host this one runs, measured in the run.

    This sandbox shares its cores: each of its CPUs, on its own and for
    seconds at a time, runs *everything* about 1.6 x slower (a pure-Python
    loop as much as a request) while a neighbour is busy beside it, and
    for minutes at a time that is most of the time. No counter shows it
    and no run is long enough to outlast it. So the benchmark times three
    fixed pieces of work that have nothing to do with the program — a
    Python dict/str loop, a chain of small matmuls, a pass over 2 MiB —
    on every CPU, between its set-ups and rounds, and divides its timings
    by how much longer than ``QUIET_MS`` they took.

    The pieces are timed in *thread CPU time*: a slower core stretches the
    CPU time of fixed work, while being scheduled out by the guest kernel
    for a 4 ms tick — which happens to a thread that computes without a
    pause and not to a request — does not count.

    ``QUIET_MS`` is what the pieces take on this class of host when nothing
    disturbs it. On another machine the factor is a constant and every
    timing is scaled by it; between commits on one machine it cancels.
    """

    QUIET_MS = {"python": 2.05, "matmul": 1.25, "memory": 1.62}
    #: timings of each piece per CPU in one :meth:`sample`
    REPEATS = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # benchmark-side probe data, not program state: dtype spelled out
        self._small = rng.standard_normal((64, 64)).astype("float32")
        self._large = rng.standard_normal(1 << 19).astype("float32")
        self.samples: Dict[str, List[float]] = {k: [] for k in self.QUIET_MS}

    def _python(self) -> None:
        words: Dict[str, int] = {}
        for i in range(8000):
            key = "w%d" % (i % 257)
            words[key] = words.get(key, 0) + i

    def _matmul(self) -> None:
        out = self._small
        for _ in range(150):
            out = np.tanh(out @ self._small) * 0.5

    def _memory(self) -> None:
        for _ in range(6):
            (self._large * 1.0001).sum()

    def sample(self) -> None:
        """Time each piece ``REPEATS`` times on every CPU (about 30 ms)."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})  # the calling thread only
                for name, piece in (
                    ("python", self._python),
                    ("matmul", self._matmul),
                    ("memory", self._memory),
                ):
                    for _ in range(self.REPEATS):
                        begin = time.thread_time()
                        piece()
                        self.samples[name].append(time.thread_time() - begin)
        finally:
            os.sched_setaffinity(0, allowed)

    def mark(self) -> int:
        """Position in the samples, for :meth:`slowdown` since then."""
        return len(self.samples["python"])

    def slowdown(self, since: int = 0, typical: bool = False) -> float:
        """Time over quiet time since ``since``, mean of the three pieces.

        A CPU is either undisturbed or about 1.6 x slower, so the samples
        have two humps. Whatever adds up over a stretch of time (a rate, a
        set-up, an ingest, a latency that is mostly queueing) stretches
        with the *mean* sample; the median request of a solo round ran in
        whichever state was the more common, so a solo median stretches
        with the median sample (``typical``).
        """
        pick = statistics.median if typical else statistics.mean
        ratios = [
            pick(self.samples[name][since:]) * 1e3 / quiet_ms
            for name, quiet_ms in self.QUIET_MS.items()
            if self.samples[name][since:]
        ]
        return statistics.mean(ratios) if ratios else 1.0


def cpu_seconds() -> float:
    """CPU time so far of this process and of its live worker processes."""
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between the listing and the read
        total += (int(fields[11]) + int(fields[12])) / tick  # utime + stime
    return total


def at_quiet_speed(seconds: float, slowdown: float, busy: float = 1.0) -> float:
    """A duration as a quiet host would have taken it.

    Only the share of it that was CPU work (``busy``) stretches with the
    host; time spent waiting on a timer (the micro-batcher's
    ``max_wait_ms`` under a solo request) does not.
    """
    busy = min(1.0, max(0.0, busy))
    return seconds * ((1.0 - busy) + busy / slowdown)


# -- samples and rounds -----------------------------------------------------


@dataclass
class Kept:
    """One reply kept for the oracle."""

    index: int  # position in the client's question list
    question: str
    variant: Variant
    results: Any
    generation: Optional[int]


@dataclass
class PhaseResult:
    """Everything one timed phase observed."""

    start: float = 0.0
    duration: float = 0.0
    done_at: List[float] = field(default_factory=list)  # reply times
    latency: List[float] = field(default_factory=list)  # seconds
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    kept: List[Kept] = field(default_factory=list)
    late: List[float] = field(default_factory=list)  # paced: send lateness

    def merge(self, other: "PhaseResult") -> None:
        self.done_at.extend(other.done_at)
        self.latency.extend(other.latency)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:3])
        self.kept.extend(other.kept)
        self.late.extend(other.late)


@dataclass
class RoundStats:
    """What one round (one short timed phase) measured."""

    throughput: float  # ops/s between the first and the last reply
    p50_ms: float
    latencies: List[float]  # seconds, of the replies inside the round


def q_ms(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of latencies in seconds, as milliseconds."""
    return percentile(sorted(samples), q) * 1e3


def round_stats(phase: PhaseResult) -> RoundStats:
    """Rate and latency percentiles of the replies inside one round.

    The rate is counted between the first and the last reply time (the
    replies at the first instant excluded), not over the nominal length:
    replies arrive in batches, and whether the last batch lands just
    inside or just outside a fixed window would otherwise move a
    100-reply round by several percent.
    """
    end = phase.start + phase.duration
    inside = sorted(
        (done, latency)
        for done, latency in zip(phase.done_at, phase.latency)
        if done <= end
    )
    latencies = [latency for _, latency in inside]
    if len(inside) < 2:
        return RoundStats(0.0, 0.0, latencies)
    first, last = inside[0][0], inside[-1][0]
    after_first = sum(1 for done, _ in inside if done > first)
    return RoundStats(
        throughput=after_first / (last - first) if last > first else 0.0,
        p50_ms=q_ms(latencies, 50),
        latencies=latencies,
    )


# -- the loops ---------------------------------------------------------------


def _drive_closed(
    channel: Any,
    questions: Sequence[str],
    variants: Sequence[Variant],
    window: int,
    start: float,
    duration: float,
    keep_first: int,
    keep_every: int,
    tag_base: int,
    out: PhaseResult,
) -> None:
    """One client: keep ``window`` requests in flight until the time is up."""
    end = start + duration
    sent_at: Dict[int, float] = {}
    next_index = 0
    while time.perf_counter() < start:
        time.sleep(0.0005)
    while True:
        while time.perf_counter() < end and channel.in_flight() < window:
            if next_index >= len(questions):
                raise RuntimeError(
                    f"question list of {len(questions)} ran out before the "
                    "phase ended; size it for the fastest system expected"
                )
            tag = tag_base + next_index
            sent_at[tag] = time.perf_counter()
            channel.send(
                tag, questions[next_index], variants[next_index % len(variants)]
            )
            next_index += 1
            out.attempted += 1
        if not channel.in_flight():
            break  # the time is up and every reply is in
        reply = channel.poll(None)
        done = time.perf_counter()
        began = None if reply is None else sent_at.pop(reply.tag, None)
        if began is None:
            # connection-level failure: nothing more will arrive; what is
            # still in ``sent_at`` is counted as failed below
            out.problems.append(str(reply and reply.results)[:200])
            break
        if not reply.ok:
            out.failed += 1
            out.problems.append(str(reply.results)[:200])
            continue
        out.done_at.append(done)
        out.latency.append(done - began)
        index = reply.tag - tag_base
        if index < keep_first or (keep_every and index % keep_every == 0):
            out.kept.append(
                Kept(
                    index,
                    questions[index],
                    variants[index % len(variants)],
                    reply.results,
                    reply.generation,
                )
            )
    out.failed += len(sent_at)  # sent, never answered


def closed_loop(
    channels: Sequence[Any],
    questions: Sequence[Sequence[str]],
    variants: Sequence[Variant],
    window: int,
    duration: float,
    keep_first: int = 0,
    keep_every: int = 0,
) -> PhaseResult:
    """Drive every channel closed-loop for ``duration`` seconds.

    ``questions[i]`` is channel ``i``'s own question list (long enough to
    outlast the phase). Each client's first ``keep_first`` replies — a set
    that does not depend on how fast the system is — and every
    ``keep_every``-th one after them are kept for the oracle.
    """
    start = time.perf_counter() + 0.01
    parts = [PhaseResult() for _ in channels]
    errors: List[BaseException] = []

    def client(i: int) -> None:
        try:
            _drive_closed(
                channels[i], questions[i], variants, window, start, duration,
                keep_first, keep_every, i * 10_000_000, parts[i],
            )
        except Exception as error:  # re-raised on the calling thread
            errors.append(error)

    if len(channels) == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(i,), name=f"e2e-client-{i}")
            for i in range(len(channels))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    total = PhaseResult(start=start, duration=duration)
    for part in parts:
        total.merge(part)
    return total


def paced_loop(
    channel: Any,
    questions: Sequence[str],
    variants: Sequence[Variant],
    rate: float,
    duration: float,
) -> PhaseResult:
    """Open loop: request ``i`` is due at ``start + i / rate``.

    Latency is timed from the due time, so a stall is charged to every
    request that was due during it; ``late`` records how far behind its
    schedule the generator sent each request.
    """
    out = PhaseResult(start=time.perf_counter() + 0.02, duration=duration)
    total = min(len(questions), int(rate * duration))
    due_of: Dict[int, float] = {}
    sent = 0
    while sent < total or channel.in_flight():
        now = time.perf_counter()
        due = out.start + sent / rate
        if sent < total and now >= due:
            due_of[sent] = due
            out.late.append(now - due)
            channel.send(sent, questions[sent], variants[sent % len(variants)])
            out.attempted += 1
            sent += 1
            continue
        wait = max(0.0, due - now) if sent < total else REPLY_TIMEOUT_S
        if not channel.in_flight():
            time.sleep(min(wait, 0.001))
            continue
        reply = channel.poll(wait)
        if reply is None:
            if sent >= total:
                break  # replies stopped coming; the rest count as failed
            continue
        done = time.perf_counter()
        began = due_of.pop(reply.tag, None)
        if not reply.ok or began is None:
            out.failed += 1
            out.problems.append(str(reply.results)[:200])
            if began is None:
                break
            continue
        out.done_at.append(done)
        out.latency.append(done - began)
    out.failed += len(due_of)
    return out
