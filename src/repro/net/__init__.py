"""Networked serving: asyncio front door over multiprocess workers.

The process-level answer to the GIL: N worker processes each
memmap-attach the same published :class:`~repro.ingest.embedding_store.
EmbeddingStore` generation (zero encoder calls, zero matrix copies) and
run the in-process micro-batcher; an asyncio front door multiplexes
clients over them; a supervisor health-checks, restarts crashes, and
hot-rolls the fleet onto new store generations mid-traffic::

    from repro.net import Fleet, NetClient, WorkerSpec

    spec = WorkerSpec(
        target="repro.net.bootstrap:synthetic_bundle",
        kwargs={"seed": 7},
        store_dir="artifacts/",          # published by `repro ingest`
    )
    with Fleet(spec, workers=4) as fleet:
        with NetClient(fleet.address) as client:
            docs = client.retrieve("who founded Millwall ?", k=5)
            client.reload("artifacts/")  # hot swap to a new generation
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.bootstrap import (
    DyadicEncoder,
    ServingBundle,
    model_dir_bundle,
    publish_store,
    resolve_target,
    synthetic_bundle,
)
from repro.net.client import NetClient, NetRequestError
from repro.net.frontdoor import FrontDoor
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    canonical_json,
    encode_frame,
    read_frame_async,
    recv_frame,
    results_to_wire,
    send_frame,
    wire_to_results,
)
from repro.net.supervisor import (
    Supervisor,
    SupervisorError,
    WorkerHandle,
    worker_control,
)
from repro.net.worker import WorkerRuntime, WorkerSpec, worker_main


class Fleet:
    """Supervisor + front door bundled behind one address."""

    def __init__(
        self,
        spec: WorkerSpec,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        watch_store: bool = False,
        health_interval_s: float = 0.25,
    ):
        self.supervisor = Supervisor(
            spec,
            workers=workers,
            watch_store=watch_store,
            health_interval_s=health_interval_s,
        )
        self.frontdoor = FrontDoor(self.supervisor, host=host, port=port)

    def start(self) -> "Fleet":
        self.supervisor.start()
        try:
            self.frontdoor.start()
        except Exception:
            self.supervisor.stop()
            raise
        return self

    def stop(self) -> None:
        self.frontdoor.stop()
        self.supervisor.stop()

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return self.frontdoor.address

    def client(self) -> NetClient:
        return NetClient(self.address)

    def rollout(self, store_dir: Optional[str] = None):
        return self.supervisor.rollout(store_dir)


__all__ = [
    "DyadicEncoder",
    "Fleet",
    "FrontDoor",
    "MAX_FRAME_BYTES",
    "NetClient",
    "NetRequestError",
    "ProtocolError",
    "ServingBundle",
    "Supervisor",
    "SupervisorError",
    "WorkerHandle",
    "WorkerRuntime",
    "WorkerSpec",
    "canonical_json",
    "encode_frame",
    "model_dir_bundle",
    "publish_store",
    "read_frame_async",
    "recv_frame",
    "results_to_wire",
    "resolve_target",
    "send_frame",
    "synthetic_bundle",
    "wire_to_results",
    "worker_control",
    "worker_main",
]
