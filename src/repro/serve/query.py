"""One served request, validated once where it is built.

A served answer — top-k documents or Eq. 8 paths — depends on the
question's normal form, mode, ``k``, ``nprobe`` and precision. A
:class:`Query` holds them and the deadline budget, checks every field at
construction (a ``submit`` call, a client, a worker decoding a frame) and
travels unchanged to the batch queue. Its :attr:`~Query.shape` ``(mode,
k, nprobe, precision key)`` is the batch key; :meth:`~Query.key`, the
shape plus the text normalized as the tokenizer does, is the cache key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.precision import PrecisionLike, resolve
from repro.text.tokenize import normalize

MODES = ("single", "paths")

Shape = Tuple[str, Optional[int], Optional[int], Optional[str]]
_OPTIONAL = ("k", "nprobe", "precision", "deadline_s")  # wire order


def _check_seconds(name: str, seconds: Any) -> Optional[float]:
    """None, or a finite number of seconds (a bool is not one)."""
    if seconds is None:
        return None
    if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
        raise ValueError(f"{name} must be a number, got {seconds!r}")
    if not math.isfinite(seconds):
        raise ValueError(f"{name} must be finite, got {seconds!r}")
    return float(seconds)


def check_deadline(deadline_s: Any) -> Optional[float]:
    """A deadline budget in seconds, or None; anything else is a
    ``ValueError`` — NaN too: ``now > nan`` is never true."""
    return _check_seconds("deadline_s", deadline_s)


def check_timeout(timeout_s: Any) -> Optional[float]:
    """A worker's wait for one reply in seconds (0: do not wait), or
    None; anything else — a string, a bool, NaN, infinity, a negative
    number — is a ``ValueError``."""
    timeout = _check_seconds("timeout_s", timeout_s)
    if timeout is not None and timeout < 0:
        raise ValueError(f"timeout_s must be >= 0, got {timeout_s!r}")
    return timeout


def _check_count(name: str, value: Any) -> None:
    """``value`` is None or an int >= 1 (a bool is not a count)."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True, slots=True)
class Query:
    """One retrieval request (module docstring).

    ``k=None`` is the service's ``default_k``; ``nprobe=None`` scores
    every shard; ``precision`` (held resolved) None is the retriever's
    own policy; ``deadline_s`` is a budget in seconds from submission.
    """

    text: str
    mode: str = "single"
    k: Optional[int] = None
    nprobe: Optional[int] = None
    precision: PrecisionLike = None
    deadline_s: Optional[float] = None
    shape: Shape = field(init=False, repr=False, compare=False)
    _key: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"question must be a string, got {self.text!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected {MODES})")
        _check_count("k", self.k)
        _check_count("nprobe", self.nprobe)
        precision = None if self.precision is None else resolve(self.precision)
        key = None if precision is None else precision.key()
        shape = (self.mode, self.k, self.nprobe, key)
        assign = object.__setattr__  # frozen: normalized once, here
        assign(self, "precision", precision)
        assign(self, "deadline_s", check_deadline(self.deadline_s))
        assign(self, "shape", shape)
        assign(self, "_key", shape + (normalize(self.text),))

    def key(self) -> Tuple:
        """The cache key: :attr:`shape` plus the normalized text."""
        return self._key

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Query":
        """The query of a decoded ``op: query`` frame; other keys are
        ignored, and a missing ``question`` is a ``TypeError``."""
        return cls(
            frame.get("question"),
            frame.get("mode", "single"),
            k=frame.get("k"),
            nprobe=frame.get("nprobe"),
            precision=frame.get("precision"),
            deadline_s=frame.get("deadline_s"),
        )

    def to_wire(self) -> Dict[str, Any]:
        """The ``op: query`` frame (without ``id``) that decodes to this."""
        values = (self.k, self.nprobe, self.shape[3], self.deadline_s)
        frame = {"op": "query", "question": self.text, "mode": self.mode}
        frame.update(
            (name, value)
            for name, value in zip(_OPTIONAL, values)
            if value is not None
        )
        return frame
