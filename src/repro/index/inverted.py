"""Multi-field inverted index, BM25-scored.

The central search abstraction: documents are indexed into named fields
("text" for the full body, "triples" for the flattened triple-fact set,
"stanford_triples" / "minie_triples" for the Table III comparisons), and
queries run BM25 against any field — exactly how the paper drives its
Elasticsearch deployment. Each field keeps its own collection statistics,
so a field ranks the same whatever other fields the index holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.index import bm25
from repro.index.analyzer import analyze
from repro.index.postings import Field


@dataclass(frozen=True)
class SearchHit:
    """One ranked retrieval result."""

    doc_id: int
    score: float


class InvertedIndex:
    """A multi-field inverted index.

    Usage::

        index = InvertedIndex()
        index.add_document(0, {"text": doc.text, "triples": flat_triples})
        hits = index.search("when was the club founded", field="triples", k=10)
    """

    def __init__(self):
        self._fields: Dict[str, Field] = {}
        self._doc_ids: List[int] = []

    # -- writing ------------------------------------------------------------
    def field(self, name: str) -> Field:
        """Get (or create) the named field."""
        if name not in self._fields:
            self._fields[name] = Field(name)
        return self._fields[name]

    def add_document(self, doc_id: int, fields: Dict[str, str]) -> None:
        """Index ``doc_id`` with raw text per field name."""
        for name, text in fields.items():
            self.field(name).add(doc_id, analyze(text))
        self._doc_ids.append(doc_id)

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    # -- searching ------------------------------------------------------------
    def search(self, query: str, field: str, k: int) -> List[SearchHit]:
        """The top ``k`` documents of ``field`` for raw ``query`` text.

        Raises KeyError for a field that was never indexed.
        """
        if field not in self._fields:
            raise KeyError(f"unknown field {field!r}")
        return [
            SearchHit(doc_id, score)
            for doc_id, score in bm25.top_k(self._fields[field], analyze(query), k)
        ]
