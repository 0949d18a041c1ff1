"""Content fingerprints driving incremental ingestion.

Three things can invalidate an offline artifact, and each gets its own
hash so only the affected stage re-runs:

* **document content** — title + body text + entity kind; a doc edit
  dirties that document's extraction *and* its embedding rows.
* **construction inputs** — the :class:`~repro.triples.construct.
  ConstructionConfig` knobs plus the entity universe (Algorithm 1's
  Eq. 1 relatedness depends on which titles exist); a change dirties
  every document's extraction.
* **encoder parameters** — config, vocabulary, weights and pooling
  weights; a change dirties every embedding row but *not* the extracted
  triples.

All fingerprints are hex SHA-256 digests of canonical byte encodings, so
they are stable across processes and platforms and safe to persist in
JSON manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Iterable, Optional, Sequence

#: Separator that cannot appear inside tokens/texts being joined.
_SEP = b"\x1f"


def _digest(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
        hasher.update(_SEP)
    return hasher.hexdigest()


def _encode(value: object) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")


def hash_texts(texts: Iterable[str]) -> str:
    """Order-sensitive digest of a sequence of strings."""
    return _digest(*(_encode(t) for t in texts))


def document_fingerprint(
    title: str, text: str, entity_kind: Optional[str] = None
) -> str:
    """Digest of one document's extraction-relevant content."""
    return _digest(b"doc:v1", _encode(title), _encode(text), _encode(entity_kind))


def config_fingerprint(config: object) -> str:
    """Digest of a (dataclass) config's field values."""
    payload = asdict(config) if is_dataclass(config) else vars(config)
    return _digest(b"cfg:v1", json.dumps(payload, sort_keys=True).encode("utf-8"))


def construction_fingerprint(config: object, entity_universe: Sequence[str]) -> str:
    """Digest of everything that parameterizes Algorithm 1 corpus-wide.

    The entity universe enters because relatedness pruning (Eq. 1) links
    against the title dictionary: adding or renaming a document can
    change another document's construction even if its text is unchanged.
    The version tag moves when the construction code changes what it
    emits (v2: Algorithm 1's tightening stops at ``min_alpha``).
    """
    return _digest(
        b"construct:v2",
        _encode(config_fingerprint(config)),
        _encode(hash_texts(sorted(entity_universe))),
    )


def triples_fingerprint(flattened: Sequence[str]) -> str:
    """Digest of one document's flattened triple texts (embedding rows)."""
    return _digest(b"rows:v1", _encode(hash_texts(flattened)))


def encoder_fingerprint(encoder) -> str:
    """Digest of everything that determines an encoder's outputs.

    Covers the architecture config, the vocabulary (token order matters —
    ids feed the embedding table), every named parameter array and the
    IDF pooling weights. Hashing is a few MB/s-scale passes over small
    arrays — orders of magnitude cheaper than one corpus encode.

    Duck-typed: components an encoder-like object lacks (test doubles,
    baselines) are simply skipped. An under-informed fingerprint can only
    cause extra re-encoding, never a wrong reuse of stale rows, because
    reuse additionally requires matching per-document row hashes.
    """
    hasher = hashlib.sha256()
    hasher.update(b"enc:v1")
    hasher.update(_encode(type(encoder).__qualname__))
    config = getattr(encoder, "config", None)
    if config is not None:
        try:
            hasher.update(_encode(config_fingerprint(config)))
        except TypeError:
            hasher.update(_encode(repr(config)))
    vocab = getattr(encoder, "vocab", None)
    if vocab is not None:
        hasher.update(
            _encode(hash_texts(vocab.token_of(i) for i in range(len(vocab))))
        )
    model = getattr(encoder, "model", None)
    if model is not None and hasattr(model, "named_parameters"):
        for name, tensor in model.named_parameters():
            data = tensor.data
            hasher.update(_encode(name))
            hasher.update(_encode(str(data.dtype)))
            hasher.update(_encode(str(data.shape)))
            hasher.update(data.tobytes())
    weights = getattr(encoder, "_token_weights", None)
    if weights is not None:
        hasher.update(_encode(str(weights.dtype)))
        hasher.update(weights.tobytes())
    return hasher.hexdigest()
