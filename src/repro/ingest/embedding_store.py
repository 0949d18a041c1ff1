"""Persistent, versioned store for the stacked triple embedding matrix.

The single-matmul retrieval path (:class:`repro.retriever.single.
SingleRetriever`) scores queries against one L2-normalizable
``(total_triples, dim)`` matrix (float32 or float64, the precision
policy's dtype) plus a segment layout
(doc-id-ordered document ids and per-document row offsets). Re-deriving
that matrix means re-encoding every flattened triple — by far the most
expensive step of a cold start. This module persists it:

* ``manifest.json`` — format version, matrix geometry, the segment
  layout, per-document row hashes (:func:`~repro.ingest.fingerprint.
  triples_fingerprint` of the flattened triples each segment encodes)
  and the encoder / construction fingerprints the rows were computed
  under.
* ``embeddings-<digest>.f32`` / ``.f64`` — the raw row-major matrix in
  the store's dtype (float32 under the default precision policy,
  float64 in exact parity mode), content-addressed by digest so a new
  generation never overwrites the file an existing manifest points at.
  The manifest's ``dtype`` field names it and the data file's suffix
  must agree. Any other format version — the pre-dtype version 1
  included — is an :class:`EmbeddingStoreError`, which every caller
  already answers by re-encoding (or, in a worker, by failing to start).

Writes are crash-safe: the data file lands first under its new
content-addressed name, then the manifest is atomically replaced to
point at it, then stale generations are garbage-collected. A crash
between any two steps leaves a fully consistent (old or new) store.
Loads default to ``np.memmap`` so a multi-GB matrix warm-starts without
reading it eagerly; pages fault in as retrieval touches them.

GC keeps a one-generation grace window: a reader that loaded the
previous manifest an instant before a writer replaced it must still find
the data file that manifest names, so ``save`` records the outgoing
generation as ``grace_file`` and only collects it on the save *after*
next. ``open`` additionally retries once when the data file vanishes
between the manifest read and the memmap — the signature of racing an
even faster writer — by re-reading the (by then newer) manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.precision import (
    F64,
    STORE_DTYPES,
    SUFFIX_DTYPES,
    dtype_named,
    file_suffix,
)
from repro.storage.atomic import atomic_write_bytes, atomic_write_json

MANIFEST_NAME = "manifest.json"
#: Published-artifact layout (``repro ingest``, ``publish_store``, a saved
#: model): the triple sets in ``STORE_NAME`` next to the embedding store
#: in ``EMBEDDINGS_DIR``. :func:`locate_store` is the one place that
#: resolves it. The name predates the file's format (per-document
#: segments, :mod:`repro.retriever.store`, not one JSON value) and is
#: kept so that a directory an older version wrote is refused with a
#: typed version error instead of being taken for empty.
STORE_NAME = "store.json"
EMBEDDINGS_DIR = "embeddings"
STORE_VERSION = 2


def read_manifest(path: Path) -> dict:
    """The JSON object in ``path``; ``OSError`` / ``ValueError`` otherwise.

    Valid JSON that is not an object (``[]``, ``null``: a truncated or
    foreign write) is as corrupt as invalid JSON, itself a ``ValueError``.
    """
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest holds a {type(manifest).__name__}")
    return manifest


def _attach_matrix(
    data_path: Path, rows: int, dim: int, mmap: bool
) -> np.ndarray:
    """Map or read the raw matrix file (module-level so tests can hook it).

    The dtype travels in the file suffix (``.f32``/``.f64``, checked
    against the manifest by the caller), which keeps this hook's
    signature stable across the dtype-policy refactor.
    """
    dtype = SUFFIX_DTYPES[data_path.suffix.lstrip(".")]
    if mmap:
        return np.memmap(data_path, dtype=dtype, mode="r", shape=(rows, dim))
    return np.fromfile(data_path, dtype=dtype).reshape(rows, dim)


class EmbeddingStoreError(RuntimeError):
    """The on-disk store is missing, corrupt, or from another version."""


class _DataFileVanished(Exception):
    """Internal: the manifest's data file disappeared mid-open (GC race)."""


@dataclass
class EmbeddingStore:
    """The stacked embedding matrix + segment layout, ready to persist.

    ``matrix`` holds the *unnormalized* encoder outputs; normalization is
    deterministic and cheap, so it is recomputed at attach time rather
    than doubling the artifact size.
    """

    matrix: np.ndarray  # (total_rows, dim) float32/float64, maybe a memmap
    doc_ids: List[int]  # ascending document ids, one per segment
    offsets: List[int]  # segment start row per document
    row_hashes: Dict[int, str]  # doc_id -> triples_fingerprint
    encoder_fingerprint: str
    construction_fingerprint: str = ""
    #: Monotonic publish counter: ``save`` writes previous + 1 into the
    #: manifest; a freshly built (never-persisted) store is generation 0.
    #: Two saves of identical content share a data file but still get
    #: distinct generations — "what the fleet serves" is a publish event,
    #: not a content identity, which is what hot reload needs to observe.
    generation: int = 0

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1]) if self.matrix.ndim == 2 else 0

    def bounds(self, index: int) -> Tuple[int, int]:
        """``(start, stop)`` rows of the ``index``-th document segment."""
        stop = (
            self.offsets[index + 1]
            if index + 1 < len(self.offsets)
            else self.matrix.shape[0]
        )
        return self.offsets[index], stop

    def segment(self, index: int) -> np.ndarray:
        """The embedding rows of the ``index``-th document segment."""
        start, stop = self.bounds(index)
        return self.matrix[start:stop]

    # -- persistence -----------------------------------------------------
    def save(self, directory: Union[str, Path]) -> Path:
        """Write a new store generation under ``directory`` (crash-safe).

        The previous generation's data file survives this save as the
        manifest's ``grace_file`` and is collected on the save after
        next. Unlinking it immediately would race concurrent readers: a
        reader that loaded the previous manifest just before this save
        replaced it would find its data file gone mid-``open``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest_path = directory / MANIFEST_NAME
        previous = {}
        if manifest_path.exists():
            try:
                previous = read_manifest(manifest_path)
            except (OSError, ValueError):
                previous = {}  # corrupt previous manifest: nothing to grace
        previous_data = previous.get("data_file")
        previous_grace = previous.get("grace_file")
        try:
            generation = int(previous.get("generation", 0)) + 1
        except (TypeError, ValueError):
            generation = 1
        # persist the matrix in its own (policy-chosen) dtype; anything
        # that is not a supported store dtype is canonicalized to float64,
        # matching the pre-dtype-policy behaviour
        dtype = np.dtype(self.matrix.dtype)
        if dtype.name not in STORE_DTYPES:
            dtype = F64
        matrix = np.ascontiguousarray(self.matrix, dtype=dtype)
        raw = matrix.tobytes()
        digest = hashlib.sha256(raw).hexdigest()
        data_name = f"embeddings-{digest[:16]}.{file_suffix(dtype)}"
        atomic_write_bytes(directory / data_name, raw)
        if previous_data == data_name:
            # content unchanged: the outgoing generation IS this one, so
            # the previous grace entry stays in its window
            grace = previous_grace
        else:
            grace = previous_data
        manifest = {
            "version": STORE_VERSION,
            "generation": generation,
            "dtype": dtype.name,
            "rows": int(matrix.shape[0]),
            "dim": int(matrix.shape[1]),
            "data_file": data_name,
            "grace_file": grace,
            "doc_ids": [int(d) for d in self.doc_ids],
            "offsets": [int(o) for o in self.offsets],
            "row_hashes": {str(d): h for d, h in self.row_hashes.items()},
            "encoder_fingerprint": self.encoder_fingerprint,
            "construction_fingerprint": self.construction_fingerprint,
        }
        atomic_write_json(directory / MANIFEST_NAME, manifest)
        self.generation = generation
        # GC generations outside the grace window; done last so a crash
        # before this point leaves the previous generation loadable
        keep = {data_name, grace}
        # all suffixes: a dtype change mid-history must still collect the
        # other-dtype generations outside the grace window
        for stale in directory.glob("embeddings-*"):
            if stale.name not in keep:
                stale.unlink(missing_ok=True)
        return directory

    @classmethod
    def open(
        cls, directory: Union[str, Path], mmap: bool = True
    ) -> "EmbeddingStore":
        """Load a store saved by :meth:`save`; raises on any inconsistency.

        Retries once when the manifest's data file vanishes between the
        manifest read and the matrix attach: that is the GC race with a
        concurrent writer two generations ahead, and re-reading the (by
        then replaced) manifest resolves it. A second vanish — or a size
        mismatch, which signals corruption rather than a race — raises.
        """
        try:
            return cls._open_once(directory, mmap=mmap)
        except _DataFileVanished:
            # GC race: re-read the (by now replaced) manifest once
            try:
                return cls._open_once(directory, mmap=mmap)
            except _DataFileVanished as error:
                raise EmbeddingStoreError(str(error)) from error

    @classmethod
    def _open_once(
        cls, directory: Union[str, Path], mmap: bool = True
    ) -> "EmbeddingStore":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise EmbeddingStoreError(f"no embedding store at {directory}")
        try:
            manifest = read_manifest(manifest_path)
        except (OSError, ValueError) as error:
            raise EmbeddingStoreError(f"unreadable manifest: {error}") from error
        version = manifest.get("version")
        if version != STORE_VERSION:
            raise EmbeddingStoreError(
                f"embedding store version {version!r} != {STORE_VERSION}"
            )
        try:
            dtype = dtype_named(str(manifest.get("dtype")))
            rows = int(manifest["rows"])
            dim = int(manifest["dim"])
            data_file = manifest["data_file"]
            if Path(data_file).suffix != "." + file_suffix(dtype):
                raise ValueError(
                    f"data file {data_file} is not a {dtype.name} file"
                )
            doc_ids = [int(d) for d in manifest["doc_ids"]]
            offsets = [int(o) for o in manifest["offsets"]]
            row_hashes = {
                int(d): str(h) for d, h in manifest["row_hashes"].items()
            }
            encoder_fp = str(manifest["encoder_fingerprint"])
            construction_fp = str(manifest.get("construction_fingerprint", ""))
        except (KeyError, TypeError, ValueError) as error:
            raise EmbeddingStoreError(f"malformed manifest: {error}") from error
        if len(doc_ids) != len(offsets):
            raise EmbeddingStoreError(
                f"{len(doc_ids)} doc ids but {len(offsets)} offsets"
            )
        data_path = directory / data_file
        try:
            actual = data_path.stat().st_size
        except FileNotFoundError as error:
            raise _DataFileVanished(
                f"missing data file {data_file}"
            ) from error
        expected = rows * dim * dtype.itemsize
        if actual != expected:
            # a size mismatch is corruption, not a GC race — don't retry
            raise EmbeddingStoreError(
                f"data file {data_file} is {actual} bytes, expected {expected}"
            )
        if rows == 0:
            matrix = np.zeros((0, dim), dtype=dtype)
        else:
            try:
                matrix = _attach_matrix(data_path, rows, dim, mmap)
            except FileNotFoundError as error:
                raise _DataFileVanished(
                    f"data file {data_file} vanished mid-open"
                ) from error
        return cls(
            matrix=matrix,
            doc_ids=doc_ids,
            offsets=offsets,
            row_hashes=row_hashes,
            encoder_fingerprint=encoder_fp,
            construction_fingerprint=construction_fp,
            generation=int(manifest.get("generation", 0) or 0),
        )


def locate_store(directory: Union[str, Path]) -> Optional[Path]:
    """The embedding-store directory under ``directory`` (None: no manifest).

    A published artifact directory keeps its store under
    ``EMBEDDINGS_DIR`` (the ingest layout), and that nested store wins
    over a manifest in ``directory`` itself (a bare store directory) —
    the supervisor's publish poll and the workers' attach both resolve
    through here, so they can never watch one store and serve the other.
    """
    directory = Path(directory)
    for candidate in (directory / EMBEDDINGS_DIR, directory):
        if (candidate / MANIFEST_NAME).exists():
            return candidate
    return None


def store_generation(directory: Union[str, Path]) -> Optional[int]:
    """Peek the published generation without attaching the matrix.

    One manifest read — cheap enough for the supervisor to poll while
    watching for a new ``repro ingest`` publish. Returns ``None`` when no
    (readable) store exists under ``directory`` (:func:`locate_store`)
    yet.
    """
    located = locate_store(directory)
    if located is None:
        return None
    try:
        manifest = read_manifest(located / MANIFEST_NAME)
    except (OSError, ValueError):
        return None
    try:
        return int(manifest.get("generation", 0))
    except (TypeError, ValueError):
        return 0
