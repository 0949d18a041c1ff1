"""The asyncio front door: one address, N worker processes behind it.

Clients speak the same length-prefixed JSON protocol the workers do; the
front door multiplexes every client request onto per-worker links
(least-pending routing) and measures true end-to-end latency in its own
reservoir — the authoritative p50/p95/p99 for the fleet, since
per-worker percentiles cannot be merged exactly.

**A query reply is relayed, not re-encoded.** A worker answers one
connection strictly in the order its requests arrived (its writer thread
settles deferred replies first-in first-out — a guarantee of
:mod:`repro.net.worker`, pinned by a test), so a link matches replies to
requests with a FIFO and never reads them: the client's own ``id``
travels to the worker, comes back inside the reply body, and the body is
written to the client as the bytes the worker sent. The single loop
thread therefore does no ``json.loads`` / ``json.dumps`` of a 2.4 KiB
result per request; the ``completed`` / ``failed`` counters read the
canonical body's first key (:func:`~repro.net.protocol.is_error_body`).
A reply that arrives with nothing outstanding means the two sides have
lost count, and the link is closed like any broken one. Only the control
ops (``stats``, ``reload``, ``ping``) are decoded and built here.

**Crash recovery.** A lost worker link re-dispatches that link's
in-flight queries onto surviving workers (bounded attempts); a ``stats``
request in flight there fails instead, since it asked about that worker
alone. Queries
are idempotent reads — the dead worker never answered them, so a retry
can change nothing but latency; a retried request therefore returns the
byte-identical response the dead worker would have produced (the reply
is a function of the request, id included, and the store generation —
nothing the front door adds). Requests
that exhaust their attempts (or find no live worker within the dispatch
window) fail with an explicit ``worker-unavailable`` error rather than
hanging. A link that breaks by itself is followed by a reconcile
against the supervisor's handles, so a worker whose process lives is
linked again at once instead of at the next respawn or rollout.

Everything network-facing here is a coroutine, and the
``blocking-in-async`` lint rule holds this file to it: no ``time.sleep``,
no synchronous socket calls, no direct file reads inside ``async def`` —
the one blocking operation (the supervisor's rollout, which spawns
processes) runs in the default executor.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.net.protocol import (
    ProtocolError,
    canonical_json,
    decode_body,
    encode_frame,
    frame_body,
    is_error_body,
    read_body_async,
    read_frame_async,
)
from repro.net.supervisor import Supervisor, WorkerHandle
from repro.perf import LatencyReservoir
from repro.serve import merge_snapshots
from repro.serve.query import check_deadline

#: Links a request may be dispatched onto before it fails as
#: ``worker-unavailable``: a poison request cannot ping-pong forever.
MAX_ATTEMPTS = 3
#: How long a request waits for a live link (a respawn is a health tick
#: plus a bundle build); its own ``deadline_s`` may end the wait sooner.
DISPATCH_TIMEOUT_S = 30.0
#: A request's longest stay here; the worker's default ``timeout_s``.
REQUEST_TIMEOUT_S = 300.0


class _Inflight:
    """One request travelling through (possibly several) links.

    ``payload`` is the frame sent to a worker, the client's ``id``
    included; ``future`` resolves to the reply *body* — a worker's bytes,
    or an error reply the front door made itself. ``deadline`` is the
    client's ``deadline_s`` stamped once, on arrival, as an absolute loop
    time: time spent waiting for a live link or being re-dispatched after
    a crash comes out of the request's budget instead of restarting it at
    every hop.
    """

    __slots__ = ("payload", "future", "attempts", "deadline")

    def __init__(
        self,
        payload: Dict[str, Any],
        future: "asyncio.Future[bytes]",
        deadline: Optional[float] = None,
    ):
        self.payload = payload
        self.future = future
        self.attempts = 0
        self.deadline = deadline

    def fail(self, kind: str, message: str) -> None:
        """Settle with a front-door-made error reply, unless settled."""
        if not self.future.done():
            self.future.set_result(
                _error_body(self.payload.get("id"), kind, message)
            )

    def expired(self, now: float) -> bool:
        """True once the budget is spent; settles the request as a
        ``DeadlineExceeded`` error instead of letting it be sent late."""
        if self.deadline is None or now < self.deadline:
            return False
        self.fail(
            "DeadlineExceeded",
            "deadline passed in the front door before a worker could take "
            "the request",
        )
        return True


def _error_payload(request_id: Any, kind: str, message: str) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": kind, "message": message},
    }


def _error_body(request_id: Any, kind: str, message: str) -> bytes:
    return canonical_json(_error_payload(request_id, kind, message))


class _WorkerLink:
    """One multiplexed connection to one worker incarnation."""

    def __init__(self, frontdoor: "FrontDoor", handle: WorkerHandle):
        self.frontdoor = frontdoor
        self.handle = handle
        self.key = (handle.slot, handle.incarnation)
        #: requests written to the worker and not yet answered, oldest
        #: first — the worker replies in exactly this order
        self.pending: Deque[_Inflight] = deque()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            *self.handle.address
        )
        self._task = asyncio.create_task(self._read_loop())

    async def send(self, inflight: _Inflight) -> None:
        """Register then transmit; registration first, so a connection
        that dies mid-write still re-dispatches this request. A request
        with a deadline carries only its *remaining* budget to the worker
        and is not sent at all once that is gone."""
        payload = inflight.payload
        if inflight.deadline is not None:
            now = asyncio.get_running_loop().time()
            if inflight.expired(now):
                return
            payload = {**payload, "deadline_s": inflight.deadline - now}
        frame = encode_frame(payload)
        # no await between these two: the FIFO's order is the wire's order
        self.pending.append(inflight)
        self._writer.write(frame)
        await self._writer.drain()

    async def _read_loop(self) -> None:
        relink = True
        try:
            while True:
                body = await read_body_async(self._reader)
                if body is None:
                    break
                if not self.pending:
                    # a reply nobody is waiting for: the worker lost count,
                    # and a fresh connection to it would be no better
                    relink = False
                    break
                inflight = self.pending.popleft()
                if not inflight.future.done():
                    inflight.future.set_result(body)
        except (ProtocolError, ConnectionError, OSError):
            pass  # lint: ignore[except-pass] -- link loss IS the signal; finally redispatches
        finally:
            await self.frontdoor._link_lost(self, relink)

    async def close(self) -> None:
        """Tear down the transport (idempotent); pending stays with the
        caller — ``_link_lost`` decides what to retry."""
        if self._closed:
            return
        self._closed = True
        if self._task is not None and self._task is not asyncio.current_task():
            self._task.cancel()
        if self._writer is not None:
            self._writer.close()

    @property
    def closed(self) -> bool:
        return self._closed


class FrontDoor:
    """Asyncio TCP server routing the protocol to the worker fleet.

    Runs its event loop in a dedicated thread so the synchronous world
    (CLI, tests, the supervisor's health thread) can start/stop it and
    receive fleet-change notifications without owning a loop themselves.
    """

    def __init__(
        self,
        supervisor: Supervisor,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.supervisor = supervisor
        self.host = host
        self._requested_port = port
        self.latencies = LatencyReservoir()
        # counters are only touched on the loop thread; the lock guards
        # cross-thread snapshot reads
        self._counter_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._retried = 0
        self._links: Dict[Tuple[int, int], _WorkerLink] = {}
        #: open client connections and the task serving each (loop thread)
        self._clients: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._links_changed: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._bound_port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle (called from the sync world) ---------------------------
    def start(self) -> "FrontDoor":
        self._thread = threading.Thread(
            target=self._run, name="repro-net-frontdoor", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"front door failed to start: {self._startup_error}"
            )
        if self._bound_port is None:
            raise RuntimeError("front door did not come up in time")
        # from here on the supervisor pushes fleet changes at us; seed
        # the link set with whatever is alive right now
        self.supervisor.on_change = self._on_workers_changed
        self._on_workers_changed(self.supervisor.handles())
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._request_stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if self.supervisor.on_change == self._on_workers_changed:
            self.supervisor.on_change = None

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        if self._bound_port is None:
            raise RuntimeError("front door is not running")
        return (self.host, self._bound_port)

    def _on_workers_changed(self, handles: List[WorkerHandle]) -> None:
        """Supervisor callback (arbitrary thread) → loop-thread reconcile."""
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self._reconcile(list(handles)), loop
            )

    # -- loop thread ------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surfaced by start()
            self._startup_error = error
            self._ready.set()

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._links_changed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # end client handlers on EOF rather than leave them for
            # asyncio.run's teardown to cancel, which 3.11 logs as an
            # error once per connection
            handlers = list(self._clients.values())
            for writer in list(self._clients):
                writer.close()
            if handlers:
                await asyncio.wait(handlers, timeout=5.0)
            for link in list(self._links.values()):
                await link.close()
            self._links.clear()

    # -- link management --------------------------------------------------
    async def _reconcile(self, handles: List[WorkerHandle]) -> None:
        want = {(h.slot, h.incarnation): h for h in handles}
        for key in [k for k in self._links if k not in want]:
            link = self._links.pop(key)
            await link.close()
            await self._redispatch_orphans(link)
        for key, handle in want.items():
            if key in self._links:
                continue
            link = _WorkerLink(self, handle)
            try:
                await link.open()
            except (ConnectionError, OSError):
                # the worker died between notification and connect; the
                # health loop will respawn it and notify again
                continue
            if key in self._links:  # a concurrent reconcile linked it first
                await link.close()
                continue
            self._links[key] = link
        self._links_changed.set()

    async def _link_lost(self, link: _WorkerLink, relink: bool = True) -> None:
        """Link-loss path: drop the link, retry its in-flight, then — when
        the connection broke by itself rather than by :meth:`_WorkerLink.
        close` — re-link every worker the supervisor still lists: a worker
        whose process lives would otherwise get no traffic until the next
        respawn or rollout notified us."""
        broke = not link.closed
        if self._links.get(link.key) is link:
            del self._links[link.key]
        await link.close()
        await self._redispatch_orphans(link)
        if broke and relink:
            await self._reconcile(self.supervisor.handles())

    async def _redispatch_orphans(self, link: _WorkerLink) -> None:
        """Retry the lost link's queries on other workers. Any other
        request asked that one worker about itself (``stats``): another
        worker's answer would be filed under the lost one, so it fails."""
        orphans = list(link.pending)
        link.pending.clear()
        for inflight in orphans:
            if inflight.future.done():
                continue
            if inflight.payload.get("op") != "query":
                inflight.fail("worker-unavailable", "the worker's link was lost")
                continue
            with self._counter_lock:
                self._retried += 1
            asyncio.create_task(self._dispatch(inflight))

    def _pick_link(self) -> Optional[_WorkerLink]:
        live = [link for link in self._links.values() if not link.closed]
        if not live:
            return None
        return min(live, key=lambda link: len(link.pending))

    async def _dispatch(self, inflight: _Inflight) -> None:
        """Route one request to a live worker, waiting out restart gaps."""
        if inflight.future.done():
            return
        inflight.attempts += 1
        if inflight.attempts > MAX_ATTEMPTS:
            inflight.fail(
                "worker-unavailable",
                f"request failed on {MAX_ATTEMPTS} workers",
            )
            return
        window_ends = self._loop.time() + DISPATCH_TIMEOUT_S
        while not inflight.future.done():
            link = self._pick_link()
            if link is not None:
                try:
                    await link.send(inflight)
                except (ConnectionError, OSError):
                    # send() registered first, so the loss path owns the
                    # retry; just take the link out of rotation
                    await self._link_lost(link)
                return
            now = self._loop.time()
            if inflight.expired(now):
                return
            remaining = window_ends - now
            if inflight.deadline is not None:
                remaining = min(remaining, inflight.deadline - now)
            if remaining <= 0:
                inflight.fail(
                    "worker-unavailable",
                    "no live worker within the dispatch window",
                )
                return
            self._links_changed.clear()
            try:
                await asyncio.wait_for(
                    self._links_changed.wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                pass  # lint: ignore[except-pass] -- timeout is the loop's normal tick

    # -- client handling --------------------------------------------------
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients[writer] = asyncio.current_task()
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None:
                    break
                task = asyncio.create_task(
                    self._serve_frame(frame, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ProtocolError, ConnectionError, OSError):
            pass  # lint: ignore[except-pass] -- client disconnect ends the loop; finally cancels
        finally:
            del self._clients[writer]
            for task in list(tasks):
                task.cancel()
            writer.close()

    async def _serve_frame(
        self,
        frame: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if not isinstance(frame, dict):
            body = _error_body(
                None, "ProtocolError", "request frame must be a JSON object"
            )
        elif frame.get("op", "query") == "query":
            body = await self._serve_query(frame)
        else:
            op = frame["op"]
            client_id = frame.get("id")
            if op == "ping":
                response: Dict[str, Any] = {
                    "ok": True,
                    "op": "ping",
                    "workers": len(self._links),
                }
            elif op == "stats":
                response = await self._serve_stats()
            elif op == "reload":
                response = await self._serve_reload(frame)
            else:
                response = _error_payload(
                    client_id, "ProtocolError", f"unknown op {op!r}"
                )
            response["id"] = client_id
            body = canonical_json(response)
        try:
            async with write_lock:
                writer.write(frame_body(body))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # lint: ignore[except-pass] -- client went away; nothing to deliver to

    async def _serve_query(self, frame: Dict[str, Any]) -> bytes:
        """The reply body for one query: a worker's bytes, or an error
        reply made here when no worker could be asked in time."""
        payload = {
            key: frame[key]
            for key in (
                "op", "question", "mode", "k", "nprobe", "precision",
                "timeout_s",
            )
            if key in frame
        }
        payload.setdefault("op", "query")
        payload["id"] = frame.get("id")
        started = self._loop.time()
        try:
            budget = check_deadline(frame.get("deadline_s"))
        except ValueError as error:
            return _error_body(payload["id"], "ValueError", str(error))
        deadline = None if budget is None else started + budget
        with self._counter_lock:
            self._submitted += 1
        inflight = _Inflight(payload, self._loop.create_future(), deadline)
        await self._dispatch(inflight)
        try:
            body = await asyncio.wait_for(
                inflight.future, timeout=REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            body = _error_body(
                payload["id"], "TimeoutError",
                f"no worker response within {REQUEST_TIMEOUT_S}s",
            )
        self.latencies.record(self._loop.time() - started)
        with self._counter_lock:
            if is_error_body(body):
                self._failed += 1
            else:
                self._completed += 1
        return body

    async def _serve_stats(self) -> Dict[str, Any]:
        workers = []
        snapshots = []
        for link in list(self._links.values()):
            inflight = _Inflight({"op": "stats"}, self._loop.create_future())
            try:
                await link.send(inflight)
                answer = decode_body(
                    await asyncio.wait_for(inflight.future, timeout=30.0)
                )
            except (
                ConnectionError, OSError, asyncio.TimeoutError, ProtocolError
            ):
                continue
            if not answer.get("ok"):
                continue
            workers.append({
                "slot": link.handle.slot,
                "incarnation": link.handle.incarnation,
                "pid": answer.get("pid"),
                "generation": answer.get("generation"),
                "pending": answer.get("pending"),
                "stats": answer.get("stats"),
                "encoder": answer.get("encoder"),
                "blas_threads": answer.get("blas_threads"),
            })
            snapshots.append(answer.get("stats") or {})
        return {
            "ok": True,
            "op": "stats",
            "frontdoor": self.stats_snapshot(),
            "workers": sorted(workers, key=lambda w: w["slot"]),
            "aggregate": merge_snapshots(snapshots),
        }

    async def _serve_reload(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        store_dir = frame.get("store_dir")
        try:
            generations = await self._loop.run_in_executor(
                None, self.supervisor.rollout, store_dir
            )
        except Exception as error:
            return _error_payload(None, type(error).__name__, str(error))
        return {"ok": True, "op": "reload", "generations": generations}

    # -- observability (sync-world safe) ----------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        with self._counter_lock:
            out = {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "retried": self._retried,
                "workers_linked": len(self._links),
            }
        out["latency_ms"] = {
            name: seconds * 1e3
            for name, seconds in self.latencies.percentiles().items()
        }
        return out
