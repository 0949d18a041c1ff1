"""Atomic artifact writes: write to a sibling temp file, then rename.

Every on-disk artifact this repo produces (triple stores, embedding
manifests, model heads, benchmark reports) is either fully the old
version or fully the new one — never a truncated hybrid. The recipe is
the standard one: write the payload to a uniquely named temp file *in
the same directory* (same filesystem, so the rename cannot degrade to a
copy), flush + fsync, then ``os.replace`` over the destination, which
POSIX guarantees is atomic. A crash at any point leaves the previous
artifact untouched; the orphaned ``*.tmp`` file is removed on the next
successful write or by the caller.

The ``nonatomic-artifact-write`` lint rule (``repro.analysis.rules``)
enforces that artifact paths are only written through these helpers.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Union

import numpy as np

PathLike = Union[str, Path]


def _atomic_write(path: PathLike, write: Callable[[Any], None]) -> None:
    """Write via ``write(handle)`` to a temp file, fsync, rename over ``path``."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    tmp_path = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # crash-simulation tests monkeypatch os.replace to fail here; the
        # destination must stay intact and the temp file must not leak
        tmp_path.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    _atomic_write(path, lambda handle: handle.write(data))


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, payload: Any, **dumps_kwargs: Any) -> None:
    """Atomically replace ``path`` with ``json.dumps(payload)``."""
    atomic_write_text(path, json.dumps(payload, **dumps_kwargs))


def atomic_write_npz(path: PathLike, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically replace ``path`` with a compressed ``.npz`` of ``arrays``.

    ``np.savez*`` appends ``.npz`` to bare file names but writes file
    *handles* verbatim, so the archive goes through the temp-file handle.
    """
    _atomic_write(path, lambda handle: np.savez_compressed(handle, **arrays))
