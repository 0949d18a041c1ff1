"""Postings storage for one index field."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass
class Posting:
    """One (document, term-frequency) entry in a postings list."""

    doc_id: int
    term_freq: int


class Field:
    """The inverted structure for one named field.

    Stores per-term postings lists, per-document lengths, and collection
    statistics needed by BM25 (document count, average length, document
    frequencies).
    """

    def __init__(self, name: str):
        self.name = name
        self._postings: Dict[str, List[Posting]] = {}
        self._doc_lengths: Dict[int, int] = {}
        self._total_length = 0

    # -- writing -----------------------------------------------------------
    def add(self, doc_id: int, terms: Iterable[str]) -> None:
        """Index ``terms`` for ``doc_id``. A document may be added once."""
        if doc_id in self._doc_lengths:
            raise ValueError(f"doc {doc_id} already indexed in field {self.name!r}")
        counts: Dict[str, int] = {}
        length = 0
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
            length += 1
        for term, freq in counts.items():
            self._postings.setdefault(term, []).append(Posting(doc_id, freq))
        self._doc_lengths[doc_id] = length
        self._total_length += length

    # -- statistics ----------------------------------------------------------
    @property
    def doc_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def doc_length(self, doc_id: int) -> int:
        """Number of terms indexed for ``doc_id`` (0 if absent)."""
        return self._doc_lengths.get(doc_id, 0)

    def doc_freq(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def postings(self, term: str) -> List[Posting]:
        """The postings list for ``term`` (empty list if unseen)."""
        return self._postings.get(term, [])
