"""Blocking client for the networked retrieval protocol.

One TCP connection, strictly request/response — callers that want
concurrency open one client per thread (connections are cheap; the
multiplexing lives in the front door). Results decode back into the
same dataclasses the in-process :class:`~repro.serve.service.
RetrievalService` returns, so swapping a service call for a
:class:`NetClient` call is a one-line change.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.net.protocol import recv_frame, send_frame, wire_to_results
from repro.serve.query import Query

#: how long a client's socket waits to connect or for a reply
TIMEOUT_S = 300.0


class NetRequestError(RuntimeError):
    """The fleet answered with an error response."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class NetClient:
    """Context-managed blocking connection to a front door (or worker)."""

    def __init__(self, address: Tuple[str, int]):
        self.address = tuple(address)
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = None

    def connect(self) -> "NetClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                self.address, timeout=TIMEOUT_S
            )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "NetClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- raw round-trips --------------------------------------------------
    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame, return the (id-matched) response frame."""
        if self._sock is None:
            raise RuntimeError("client is not connected; use connect()")
        request_id = next(self._ids)
        send_frame(self._sock, {**payload, "id": request_id})
        while True:
            response = recv_frame(self._sock)
            if response is None:
                raise ConnectionError("connection closed awaiting response")
            if response.get("id") == request_id:
                return response

    def query_raw(self, query: Query) -> Dict[str, Any]:
        """The full wire response of one query (results still encoded).

        Byte-identity tests compare this — re-canonicalizing
        ``response["results"]`` yields the exact bytes the worker sent.
        A malformed field raised where the :class:`Query` was built,
        before anything is sent.
        """
        response = self.request(query.to_wire())
        if not response.get("ok"):
            error = response.get("error") or {}
            raise NetRequestError(
                error.get("type", "unknown"), error.get("message", "")
            )
        return response

    # -- decoded conveniences ---------------------------------------------
    def retrieve(self, question: str, **fields) -> List[Any]:
        """Single-hop retrieval, decoded to ``RetrievedDocument`` lists;
        ``fields`` are the other :class:`Query` fields."""
        response = self.query_raw(Query(question, "single", **fields))
        return wire_to_results("single", response["results"])

    def retrieve_paths(self, question: str, **fields) -> List[Any]:
        """Multi-hop retrieval, decoded to ``DocumentPath`` lists."""
        response = self.query_raw(Query(question, "paths", **fields))
        return wire_to_results("paths", response["results"])

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def reload(self, store_dir: Optional[str] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "reload"}
        if store_dir is not None:
            payload["store_dir"] = str(store_dir)
        response = self.request(payload)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise NetRequestError(
                error.get("type", "unknown"), error.get("message", "")
            )
        return response
