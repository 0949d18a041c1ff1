"""Worker-fleet supervision: spawn, health-check, restart, roll out.

The supervisor owns N worker *slots*. Each slot runs one
:func:`~repro.net.worker.worker_main` process; the supervisor learns its
bound port and store generation over a one-shot pipe, then watches
liveness from a health thread. A crashed worker is respawned into its
slot against the *current* store directory, and ``on_change`` tells the
front door the fleet membership moved so it can rebuild links and retry
that worker's in-flight requests elsewhere.

``start`` launches every worker before it waits for any, so the fleet
comes up in the time of its slowest worker rather than the sum (and a
worker's post-ready housekeeping — retiring its BLAS pool — overlaps the
others' construction instead of delaying them). If any slot fails to
come up, every process launched is terminated and joined before the
error propagates: a failed ``start`` leaves nothing running.

``rollout`` is the hot-reload half: workers are told to ``reload`` one
at a time, so at every instant at most one worker is draining its old
service and the rest keep absorbing traffic — the fleet-level swap is
eventually complete with zero dropped requests, while per-request
atomicity (no mixed-generation answer) is the worker's own guarantee.
A worker that answers the reload with a rejection keeps serving what it
has; only an unreachable one is replaced.
The health thread can also *watch* the store directory (one manifest
read per poll) and trigger the rollout itself when ``repro ingest``
publishes a new generation (one the fleet refused is offered once).

Everything here runs in plain threads with blocking sockets — the
``blocking-in-async`` lint rule only polices ``async def`` bodies, and
the supervisor deliberately has none.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.ingest.embedding_store import store_generation
from repro.net.protocol import ProtocolError, recv_frame, send_frame
from repro.net.worker import WORKER_HOST, WorkerSpec, worker_main

#: How long a launched worker has to report ready (it builds its bundle,
#: attaches the store and builds shards first) before it is terminated.
SPAWN_TIMEOUT_S = 120.0


class SupervisorError(RuntimeError):
    """A worker failed to start or a control call could not complete."""


@dataclass
class WorkerHandle:
    """One live worker as the rest of the system addresses it."""

    slot: int
    #: bumps on every (re)spawn into the slot, so the front door can tell
    #: a restarted worker from the one whose link it just lost
    incarnation: int
    process: Any
    port: int
    generation: int
    pid: int

    @property
    def address(self) -> tuple:
        return (WORKER_HOST, self.port)

    def alive(self) -> bool:
        return self.process.is_alive()


@dataclass
class _Launch:
    """A worker process started but not yet heard from."""

    slot: int
    incarnation: int
    process: Any
    ready_conn: Any


def worker_control(
    handle: WorkerHandle, message: Dict[str, Any], timeout: float = 60.0
) -> Dict[str, Any]:
    """One short-lived control round-trip (ping/stats/reload/shutdown)."""
    with socket.create_connection(handle.address, timeout=timeout) as conn:
        send_frame(conn, message)
        response = recv_frame(conn)
    if response is None:
        raise SupervisorError(
            f"worker {handle.slot} closed the control connection"
        )
    return response


class Supervisor:
    """Spawns and babysits the worker fleet."""

    def __init__(
        self,
        spec: WorkerSpec,
        workers: int = 2,
        health_interval_s: float = 0.25,
        watch_store: bool = False,
        on_change: Optional[Callable[[List[WorkerHandle]], None]] = None,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.spec = spec
        self.n_workers = workers
        self.health_interval_s = health_interval_s
        self.watch_store = watch_store
        self.on_change = on_change
        self._lock = threading.Lock()
        self._slots: Dict[int, WorkerHandle] = {}
        self._store_dir = spec.store_dir
        self._incarnations = 0
        self._restarts = 0
        self._rollouts = 0
        #: newest generation the watcher offered and saw refused (its own)
        self._refused_generation = 0
        self._stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "Supervisor":
        launched: List[_Launch] = []
        try:
            for slot in range(self.n_workers):
                launched.append(self._launch(slot))
            for launch in launched:
                self._await_ready(launch)
        except BaseException:  # whatever stopped it, leave nothing running
            with self._lock:
                self._slots.clear()
            for launch in launched:
                launch.ready_conn.close()  # not every one was awaited
                launch.process.terminate()
            for launch in launched:
                launch.process.join(timeout=10.0)
            raise
        self._notify()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-net-health", daemon=True
        )
        self._health_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10.0)
            self._health_thread = None
        with self._lock:
            handles = list(self._slots.values())
            self._slots.clear()
        for handle in handles:
            try:
                worker_control(handle, {"op": "shutdown"}, timeout=5.0)
            except (OSError, ProtocolError, SupervisorError):
                pass  # lint: ignore[except-pass] -- already dead or wedged; terminate below anyway
            handle.process.terminate()
        for handle in handles:
            handle.process.join(timeout=10.0)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- observability ----------------------------------------------------
    def handles(self) -> List[WorkerHandle]:
        with self._lock:
            return [
                self._slots[slot]
                for slot in sorted(self._slots)
                if self._slots[slot].alive()
            ]

    @property
    def restarts(self) -> int:  # lint: ignore[dead-symbol] -- fault observer: respawns so far
        with self._lock:
            return self._restarts

    @property
    def rollouts(self) -> int:  # lint: ignore[dead-symbol] -- fault observer: rollouts completed
        with self._lock:
            return self._rollouts

    @property
    def store_dir(self) -> Optional[str]:
        with self._lock:
            return self._store_dir

    # -- spawning ---------------------------------------------------------
    def _launch(self, slot: int) -> _Launch:
        """Start one worker process; :meth:`_await_ready` collects it."""
        with self._lock:
            store_dir = self._store_dir
            self._incarnations += 1
            incarnation = self._incarnations
        spec = replace(
            self.spec,
            store_dir=store_dir,
            kwargs=dict(self.spec.kwargs),
            service=dict(self.spec.service),
        )
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=worker_main,
            args=(spec, child_conn),
            name=f"repro-net-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Launch(slot, incarnation, process, parent_conn)

    def _await_ready(self, launch: _Launch) -> WorkerHandle:
        """Wait for a launched worker's ready message and register it."""
        slot, process = launch.slot, launch.process
        try:
            if not launch.ready_conn.poll(SPAWN_TIMEOUT_S):
                process.terminate()
                raise SupervisorError(
                    f"worker {slot} did not report ready within "
                    f"{SPAWN_TIMEOUT_S}s"
                )
            ready = launch.ready_conn.recv()
        except EOFError:  # killed before worker_main could report anything
            raise SupervisorError(
                f"worker {slot} died before reporting ready"
            ) from None
        finally:
            launch.ready_conn.close()
        if "error" in ready:
            process.join(timeout=5.0)
            raise SupervisorError(
                f"worker {slot} failed to start: {ready['error']}"
            )
        handle = WorkerHandle(
            slot=slot,
            incarnation=launch.incarnation,
            process=process,
            port=int(ready["port"]),
            generation=int(ready["generation"]),
            pid=int(ready["pid"]),
        )
        with self._lock:
            self._slots[slot] = handle
        return handle

    def _spawn(self, slot: int) -> WorkerHandle:
        """(Re)spawn one slot and wait for it: the respawn path."""
        return self._await_ready(self._launch(slot))

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(self.handles())

    # -- health / store watching ------------------------------------------
    def _health_loop(self) -> None:
        while not self._stop.wait(self.health_interval_s):
            restarted = False
            with self._lock:
                dead = [
                    slot
                    for slot, handle in self._slots.items()
                    if not handle.alive()
                ]
            for slot in dead:
                if self._stop.is_set():
                    return
                try:
                    self._spawn(slot)
                except SupervisorError:
                    continue  # next tick retries the slot
                with self._lock:
                    self._restarts += 1
                restarted = True
            if restarted:
                self._notify()
            if self.watch_store and not self._stop.is_set():
                self._maybe_rollout()

    def _maybe_rollout(self) -> None:
        with self._lock:
            store_dir = self._store_dir
            current = min(
                (h.generation for h in self._slots.values()),
                default=None,
            )
        if store_dir is None or current is None:
            return
        published = store_generation(store_dir)
        if published is None or published <= max(
            current, self._refused_generation
        ):
            return
        try:
            self.rollout(store_dir)
        except SupervisorError:
            # uncaught, this would end the health thread; re-offered
            # every tick, the generation could only be refused again
            self._refused_generation = published

    # -- hot reload -------------------------------------------------------
    def rollout(self, store_dir: Optional[str] = None) -> List[int]:
        """Roll every worker onto ``store_dir``'s generation, one at a time.

        A worker that *answers* with a rejection is healthy and keeps
        serving its generation; the rejections are raised as one
        :class:`SupervisorError` once every slot has been asked. Only an
        unreachable worker is replaced, by a spawn against the directory
        the fleet is on — ``store_dir`` once a worker has accepted it,
        not before. Returns the per-slot generations after the roll.
        """
        with self._lock:
            target = store_dir or self._store_dir
        generations: List[int] = []
        refused: Dict[int, Any] = {}  # slot -> the error it answered
        for slot in sorted(self._slots_snapshot()):
            if self._stop.is_set():
                break
            handle = self._slots_snapshot().get(slot)
            if handle is None:
                continue
            try:
                response = worker_control(
                    handle, {"op": "reload", "store_dir": target}
                )
                if response.get("ok"):
                    with self._lock:
                        handle.generation = int(response["generation"])
                        self._store_dir = target
                else:
                    refused[slot] = response.get("error")
            except (OSError, ProtocolError, SupervisorError, KeyError,
                    ValueError):
                # the worker is wedged or gone: replace it outright
                handle.process.terminate()
                handle.process.join(timeout=10.0)
                handle = self._spawn(slot)
                self._notify()
            generations.append(handle.generation)
        if refused:
            raise SupervisorError(
                f"reload of {target} rejected by slot(s) {sorted(refused)}; "
                f"first error: {refused[min(refused)]}"
            )
        with self._lock:
            self._rollouts += 1
        return generations

    def _slots_snapshot(self) -> Dict[int, WorkerHandle]:
        with self._lock:
            return dict(self._slots)
