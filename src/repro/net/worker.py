"""The worker process: one `RetrievalService` behind a TCP socket.

Each worker is spawned by the supervisor with a :class:`WorkerSpec`,
rebuilds its serving bundle from the spec's importable factory target,
memmap-attaches the published embedding store (zero encoder calls, zero
matrix copies — the manifest's fingerprints prove the rows are reusable)
and serves the length-prefixed JSON protocol with the existing
micro-batcher underneath: per-connection reader threads submit straight
into :class:`~repro.serve.service.RetrievalService`, so coalescing,
admission control and deadlines all apply unchanged.

**Hot swap.** ``reload`` builds a *second* retriever/service on the new
store generation, then swaps the instance pointer under ``_swap_lock``
and drains the old service. Query submission snapshots
``(service, generation)`` under the same lock, which yields the two
properties the fleet guarantees: no request is ever submitted to a
stopped service (zero drops), and every response is tagged with exactly
the generation that scored it (no mixed-generation answers — a request
is answered wholly by the service it was submitted to).

**Replies leave a connection in the order its requests arrived.** One
reader thread per connection queues a deferred reply per frame and one
writer thread settles them first-in first-out, so a cache hit behind a
request still waiting in the batch window is held until that request is
answered. The front door relies on it: it matches replies to requests by
position, not by id, and relays the reply bytes untouched.

**One BLAS thread per worker.** The fleet scales by worker processes, so
:func:`worker_main` retires OpenBLAS's pool in its own process
(:mod:`repro.net.blas`): a pool thread spin-waits about 0.1 s after
every small GEMM, which under steady traffic is half a CPU per worker
taken from the processes that answer requests. It does so *after* the
ready message is sent — in a forked child ``set_num_threads`` first
re-creates the pool, and the thread it then retires spins its 0.1 s
beside whichever worker is still building its service — and before the
accept loop, so every reply is computed with the pool already gone.
``ping`` / ``stats`` report the count read back as ``blas_threads``.
"""

from __future__ import annotations

import os
import socket
import threading
import queue as queue_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.ingest.embedding_store import (
    STORE_NAME,
    EmbeddingStore,
    locate_store,
)
from repro.net.blas import blas_threads, retire_blas_pool
from repro.net.bootstrap import ServingBundle, resolve_target
from repro.net.protocol import (
    ProtocolError,
    recv_frame,
    results_to_wire,
    send_frame,
)
from repro.perf import COUNTERS
from repro.retriever.store import TripleStore
from repro.serve import Query, RetrievalService, ServiceConfig
from repro.shard import MODES as SHARD_MODES

#: Workers listen on loopback only: nothing but their own supervisor and
#: front door (same machine by construction) ever connects to them.
WORKER_HOST = "127.0.0.1"


@dataclass
class WorkerSpec:
    """Everything needed to stand up one worker process.

    Picklable and JSON-safe: ``target`` names an importable
    :class:`~repro.net.bootstrap.ServingBundle` factory
    (``"module:function"``) and ``kwargs`` are its arguments, so the
    spec can cross process boundaries and be embedded in control frames.
    """

    target: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: published artifact dir (``STORE_NAME`` segments + ``embeddings/``)
    #: to warm-attach; None serves the bundle's own in-memory store cold
    store_dir: Optional[str] = None
    multihop: bool = True
    #: build an in-worker shard plan over the attached matrix
    shards: int = 0
    shard_mode: str = "range"
    #: ServiceConfig field overrides (e.g. {"max_wait_ms": 1.0})
    service: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # fail here, in the parent, before any process is spawned — not
        # as N "worker failed to start" errors after N bundle builds
        ServiceConfig(**self.service)
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        if self.shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard mode {self.shard_mode!r} "
                f"(expected {SHARD_MODES})"
            )


class WorkerRuntime:
    """Socket front + service lifecycle of one worker process."""

    def __init__(self, bundle: ServingBundle, spec: WorkerSpec):
        self.bundle = bundle
        self.spec = spec
        self._swap_lock = threading.Lock()
        self._service, self._generation = self._build_service(spec.store_dir)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((WORKER_HOST, 0))
        self._listener.listen(64)
        self._shutdown = threading.Event()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def generation(self) -> int:
        with self._swap_lock:
            return self._generation

    # -- service construction / hot swap ---------------------------------
    def _build_service(
        self, store_dir: Optional[str]
    ) -> Tuple[RetrievalService, int]:
        """A fresh service on ``store_dir``'s current generation.

        Never mutates the live service's retriever: hot reload calls
        this for the new generation while the old pair keeps serving.
        A triple file this version cannot read raises
        :class:`~repro.retriever.store.TripleStoreError`: start-up fails,
        a reload is refused and the old generation serves on.
        """
        triples = self.bundle.store
        generation = 0
        embeddings: Optional[EmbeddingStore] = None
        if store_dir is not None:
            store_path = Path(store_dir) / STORE_NAME
            if store_path.exists():
                triples = TripleStore.load(store_path, self.bundle.corpus)
            emb_dir = locate_store(store_dir)
            if emb_dir is not None:
                embeddings = EmbeddingStore.open(emb_dir, mmap=True)
        retriever = self.bundle.make_retriever(triples)
        if embeddings is not None:
            adopted = retriever.attach_embeddings(embeddings)
            if adopted == 0 and embeddings.matrix.shape[0] > 0:
                raise RuntimeError(
                    f"store at {store_dir} was rejected by attach "
                    "(fingerprint/layout mismatch)"
                )
            generation = embeddings.generation
        if self.spec.shards > 0:
            retriever.build_shards(self.spec.shards, mode=self.spec.shard_mode)
        multihop = (
            self.bundle.make_multihop(retriever)
            if self.spec.multihop
            else None
        )
        config = ServiceConfig(**dict(self.spec.service))
        service = RetrievalService(retriever, multihop=multihop, config=config)
        service.start()
        return service, generation

    def reload(self, store_dir: Optional[str] = None) -> int:
        """Atomically swap onto the (new) generation at ``store_dir``.

        Builds the replacement service first — a failure leaves the old
        one serving untouched. The pointer swap happens under the same
        lock submissions take, then the old service drains: everything
        already submitted completes on (and is tagged with) the old
        generation. Returns the new generation.
        """
        target = store_dir or self.spec.store_dir
        new_service, new_generation = self._build_service(target)
        with self._swap_lock:
            old_service = self._service
            self._service = new_service
            self._generation = new_generation
        if target is not None:
            self.spec.store_dir = target
        old_service.stop(drain=True)
        return new_generation

    # -- request handling -------------------------------------------------
    def _submit(self, message: Dict[str, Any]) -> Callable[[], Dict[str, Any]]:
        """Submit one query now; return a thunk that waits for its result.

        Submission happens under ``_swap_lock`` so a request can never
        race the hot swap into a stopped service, and the generation it
        captures is exactly the one that will score it.
        """
        request_id = message.get("id")
        try:
            # decoding inside the try: a malformed field is this request's
            # typed error, not the end of the connection's reader thread
            query = Query.from_wire(message)
            timeout = (
                300.0
                if message.get("timeout_s") is None
                else float(message["timeout_s"])
            )
            with self._swap_lock:
                generation = self._generation
                pending = self._service.submit(query)
        except Exception as error:
            # a malformed field's TypeError / ValueError, Overloaded,
            # ServiceStopped — all surface as typed error responses.
            # (rebound: `except` unbinds its name when the block exits,
            # which would NameError inside the deferred lambda)
            failure = error
            return lambda: _error_response(request_id, failure)

        def wait() -> Dict[str, Any]:
            try:
                results = pending.result(timeout)
            except Exception as error:
                return _error_response(request_id, error)
            return {
                "id": request_id,
                "ok": True,
                "mode": query.mode,
                "generation": generation,
                "results": results_to_wire(query.mode, results),
            }

        return wait

    def _handle(self, message: Any) -> Callable[[], Dict[str, Any]]:
        """Map one request frame to a deferred-response thunk."""
        if not isinstance(message, dict):
            return lambda: _error_response(
                None, ProtocolError("request frame must be a JSON object")
            )
        op = message.get("op", "query")
        request_id = message.get("id")
        if op == "query":
            return self._submit(message)
        if op == "ping":
            response = {
                "id": request_id,
                "ok": True,
                "op": "ping",
                "pid": os.getpid(),
                "generation": self.generation,
                "blas_threads": blas_threads(),
            }
            return lambda: response
        if op == "stats":
            def stats() -> Dict[str, Any]:
                with self._swap_lock:
                    service, generation = self._service, self._generation
                return {
                    "id": request_id,
                    "ok": True,
                    "op": "stats",
                    "pid": os.getpid(),
                    "generation": generation,
                    "pending": service.pending(),
                    "stats": service.stats_snapshot(),
                    # this process's encoder token throughput (warm paths
                    # only encode the query; cold paths the whole corpus)
                    "encoder": COUNTERS.encoder_throughput(),
                    "blas_threads": blas_threads(),
                }
            return stats
        if op == "reload":
            def reload() -> Dict[str, Any]:
                try:
                    generation = self.reload(message.get("store_dir"))
                except Exception as error:
                    return _error_response(request_id, error)
                return {
                    "id": request_id,
                    "ok": True,
                    "op": "reload",
                    "generation": generation,
                }
            return reload
        if op == "shutdown":
            def shutdown() -> Dict[str, Any]:
                self._shutdown.set()
                return {"id": request_id, "ok": True, "op": "shutdown"}
            return shutdown
        return lambda: _error_response(
            request_id, ProtocolError(f"unknown op {op!r}")
        )

    # -- connection plumbing ----------------------------------------------
    def _write_loop(self, conn: socket.socket, work) -> None:
        """Settle deferred responses in submission order and send them."""
        while True:
            thunk = work.get()
            if thunk is None:
                return
            response = thunk()
            try:
                send_frame(conn, response)
            except OSError:
                return  # peer vanished; readers notice on their side

    def _serve_connection(self, conn: socket.socket) -> None:
        work: "queue_module.Queue" = queue_module.Queue()
        writer = threading.Thread(
            target=self._write_loop,
            args=(conn, work),
            name="repro-net-writer",
            daemon=True,
        )
        writer.start()
        try:
            while not self._shutdown.is_set():
                try:
                    message = recv_frame(conn)
                except (ProtocolError, OSError):
                    break
                if message is None:
                    break
                work.put(self._handle(message))
        finally:
            work.put(None)
            writer.join(timeout=30.0)
            try:
                conn.close()
            except OSError:
                pass  # lint: ignore[except-pass] -- peer already tore the socket down

    def serve_forever(self) -> None:
        """Accept loop; returns after a ``shutdown`` op."""
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-net-conn",
                daemon=True,
            ).start()
        self.close()

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass  # lint: ignore[except-pass] -- listener may already be closed
        with self._swap_lock:
            service = self._service
        service.stop(drain=True)


def _error_response(request_id: Any, error: BaseException) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
        },
    }


def worker_main(spec: WorkerSpec, ready_conn) -> None:
    """Process entry point: build, bind, report readiness, serve.

    ``ready_conn`` (one end of a ``multiprocessing.Pipe``) receives
    either ``{"port", "pid", "generation"}`` once the listener is bound
    or ``{"error"}`` when construction fails — the supervisor decides
    what to do with the corpse.
    """
    try:
        bundle = resolve_target(spec.target)(**spec.kwargs)
        runtime = WorkerRuntime(bundle, spec)
    except Exception as error:
        try:
            ready_conn.send({"error": f"{type(error).__name__}: {error}"})
        finally:
            ready_conn.close()
        return
    try:
        ready_conn.send({
            "port": runtime.port,
            "pid": os.getpid(),
            "generation": runtime.generation,
        })
    finally:
        ready_conn.close()
    retire_blas_pool()  # after ready, before the first accept: module docstring
    runtime.serve_forever()
