"""Wire protocol of the networked serving subsystem.

Frames are 4-byte big-endian length prefixes followed by a UTF-8 JSON
body. JSON is always rendered *canonically* (sorted keys, fixed
separators) so two processes serializing the same result produce the
same bytes — the property the byte-identity acceptance tests compare,
and the reason responses can be diffed across worker generations at all.
Python's ``repr``-shortest float serialization round-trips every IEEE
double exactly, so scores survive the JSON hop bit-for-bit.

The codec maps the retrieval result dataclasses
(:class:`~repro.retriever.single.RetrievedDocument`,
:class:`~repro.pipeline.multihop.DocumentPath`,
:class:`~repro.oie.triple.Triple`) to plain dicts and back;
``triple_scores`` (a per-request numpy debug artifact, ``None`` on every
serving path) is deliberately not carried.

Both sync (worker/supervisor/client threads) and asyncio (front door)
frame helpers live here so every component speaks from one definition.

**Error replies start with the ``error`` key.** An error reply is
exactly ``{"error": {"type", "message"}, "id", "ok": false}`` and no
success reply has an ``error`` key, so in canonical (sorted-key) form a
reply body is an error exactly when it begins ``{"error":``. The front
door relays worker replies as bytes and counts failures with
:func:`is_error_body` instead of decoding 2.4 KiB of JSON to read
``ok``; a test pins it over every reply shape a worker produces.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence

from repro.oie.triple import Triple
from repro.pipeline.multihop import DocumentPath
from repro.retriever.single import RetrievedDocument

#: Frame bodies beyond this are a protocol violation, not a big request.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed frame: bad length, oversized body, or invalid JSON."""


def canonical_json(obj: Any) -> bytes:
    """The one JSON rendering every component uses (byte-stable)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def frame_body(body: bytes) -> bytes:
    """Length-prefix an already-encoded body (what a relay sends on)."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body {len(body)} bytes exceeds cap")
    return _LENGTH.pack(len(body)) + body


def encode_frame(obj: Any) -> bytes:
    """Length-prefixed canonical-JSON frame for ``obj``."""
    return frame_body(canonical_json(obj))


def is_error_body(body: bytes) -> bool:
    """Whether a canonical reply body is an error reply (module docstring)."""
    return body.startswith(b'{"error":')


def decode_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"invalid frame body: {error}") from error


# -- sync framing (worker / supervisor / client threads) -----------------


def send_frame(sock: socket.socket, obj: Any) -> None:
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Next decoded frame from ``sock``; None on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return decode_body(body)


# -- asyncio framing (front door) ----------------------------------------


async def read_body_async(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Next frame's body, undecoded, from an asyncio stream; None on clean
    EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise ProtocolError("connection closed mid-frame") from error
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds cap")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            "connection closed between header and body"
        ) from error
    return body


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[Any]:
    """Next decoded frame from an asyncio stream; None on clean EOF."""
    body = await read_body_async(reader)
    return None if body is None else decode_body(body)


# -- result codec --------------------------------------------------------


def triple_to_wire(triple: Optional[Triple]) -> Optional[Dict[str, Any]]:
    if triple is None:
        return None
    return {
        "subject": triple.subject,
        "predicate": triple.predicate,
        "object": triple.object,
        "extra_objects": list(triple.extra_objects),
        "source": triple.source,
        "sentence_index": triple.sentence_index,
        "confidence": triple.confidence,
    }


def wire_to_triple(payload: Optional[Dict[str, Any]]) -> Optional[Triple]:
    if payload is None:
        return None
    return Triple(
        subject=payload["subject"],
        predicate=payload["predicate"],
        object=payload["object"],
        extra_objects=tuple(payload.get("extra_objects") or ()),
        source=payload.get("source", ""),
        sentence_index=int(payload.get("sentence_index", -1)),
        confidence=float(payload.get("confidence", 1.0)),
    )


def document_to_wire(doc: RetrievedDocument) -> Dict[str, Any]:
    return {
        "doc_id": doc.doc_id,
        "title": doc.title,
        "score": doc.score,
        "matched_triple": triple_to_wire(doc.matched_triple),
    }


def wire_to_document(payload: Dict[str, Any]) -> RetrievedDocument:
    return RetrievedDocument(
        doc_id=int(payload["doc_id"]),
        title=payload["title"],
        score=float(payload["score"]),
        matched_triple=wire_to_triple(payload.get("matched_triple")),
    )


def path_to_wire(path: DocumentPath) -> Dict[str, Any]:
    return {
        "doc_ids": list(path.doc_ids),
        "titles": list(path.titles),
        "score": path.score,
        "hop_scores": list(path.hop_scores),
        "clue": triple_to_wire(path.clue),
        "matched_triples": [
            triple_to_wire(t) for t in path.matched_triples
        ],
        "updated_question": path.updated_question,
    }


def wire_to_path(payload: Dict[str, Any]) -> DocumentPath:
    return DocumentPath(
        doc_ids=tuple(int(d) for d in payload["doc_ids"]),
        titles=tuple(payload["titles"]),
        score=float(payload["score"]),
        hop_scores=tuple(float(s) for s in payload.get("hop_scores") or ()),
        clue=wire_to_triple(payload.get("clue")),
        matched_triples=tuple(
            wire_to_triple(t) for t in payload.get("matched_triples") or ()
        ),
        updated_question=payload.get("updated_question"),
    )


def results_to_wire(mode: str, results: Sequence[Any]) -> List[Dict[str, Any]]:
    """Encode one request's result list for its ``mode``."""
    if mode == "paths":
        return [path_to_wire(p) for p in results]
    return [document_to_wire(d) for d in results]


def wire_to_results(mode: str, payload: Sequence[Dict[str, Any]]) -> List[Any]:
    """Decode a wire result list back into result dataclasses."""
    if mode == "paths":
        return [wire_to_path(p) for p in payload]
    return [wire_to_document(d) for d in payload]
