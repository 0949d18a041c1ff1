"""Read and retire the OpenBLAS thread pool of *this* process.

OpenBLAS keeps a pool of worker threads that, after every GEMM, spin on
``sched_yield`` for about 0.1 s before they sleep. A fleet worker issues
a small GEMM per micro-batch, so under steady traffic its pool thread
never sleeps and burns half a CPU doing nothing (DESIGN, "Where a
worker's CPU goes"). The fleet's unit of parallelism is the worker
process, so :func:`~repro.net.worker.worker_main` sets the pool to one
thread — the calling thread, no pool — in its own process.

The library is found among the objects already mapped into the process
(``/proc/self/maps``), never loaded or configured from outside: no
environment variable, and the parent's pool is not touched. Where there
is no ``/proc``, no OpenBLAS or no thread-count symbol (another BLAS, a
static build), both functions are silent no-ops — they never raise.
"""

from __future__ import annotations

import ctypes
from typing import Callable, List, Optional, Tuple

# numpy and scipy wheels export the OpenBLAS API under these decorations
# (e.g. ``scipy_openblas_set_num_threads64_``)
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_", "_64")

_Pool = Tuple[Callable[[int], None], Callable[[], int]]


def _bind(library: ctypes.CDLL) -> Optional[_Pool]:
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                setter = getattr(
                    library, f"{prefix}openblas_set_num_threads{suffix}"
                )
                getter = getattr(
                    library, f"{prefix}openblas_get_num_threads{suffix}"
                )
            except AttributeError:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def _pools() -> List[_Pool]:
    """``(set_num_threads, get_num_threads)`` of every loaded OpenBLAS."""
    try:
        with open(
            "/proc/self/maps", encoding="utf-8", errors="replace"
        ) as maps:
            # address perms offset dev inode pathname
            paths = sorted(
                {
                    line.split(None, 5)[-1].strip()
                    for line in maps
                    if "openblas" in line.lower()
                }
            )
    except OSError:
        return []
    pools: List[_Pool] = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)  # already mapped: a handle, no load
        except OSError:
            continue
        pool = _bind(library)
        if pool is not None:
            pools.append(pool)
    return pools


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use (the largest, if several are
    loaded); ``None`` when this process has no controllable BLAS."""
    counts = [getter() for _setter, getter in _pools()]
    return max(counts) if counts else None


def retire_blas_pool() -> None:
    """Run BLAS on the calling thread only, from now on."""
    for setter, _getter in _pools():
        setter(1)
