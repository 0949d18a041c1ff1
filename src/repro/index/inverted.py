"""Multi-field inverted index with pluggable scorers.

The central search abstraction: documents are indexed into named fields
("text" for the full body, "triples" for the flattened triple-fact set,
"stanford_triples" / "minie_triples" for the Table III comparisons), and
queries run BM25 or TF-IDF against any field — exactly how the paper drives
its Elasticsearch deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.index.analyzer import Analyzer
from repro.index.bm25 import BM25Scorer
from repro.index.postings import Field
from repro.index.tfidf import TfidfScorer


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

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        scorer: Union[BM25Scorer, TfidfScorer, None] = None,
    ):
        self.analyzer = analyzer or Analyzer()
        self.scorer = scorer or BM25Scorer()
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
            self.field(name).add(doc_id, self.analyzer.analyze(text))
        self._doc_ids.append(doc_id)

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    # -- searching ------------------------------------------------------------
    def search(
        self,
        query: str,
        field: str = "text",
        k: int = 10,
        scorer: Union[BM25Scorer, TfidfScorer, None] = None,
        exclude: Optional[Sequence[int]] = None,
    ) -> List[SearchHit]:
        """Rank documents in ``field`` against ``query``.

        Parameters
        ----------
        query:
            Raw query text (analyzed with the index analyzer).
        field:
            Field to search; raises KeyError if never indexed.
        k:
            Number of hits to return.
        scorer:
            Optional scorer override for this call.
        exclude:
            Document ids to omit from the ranking (used when mining
            negatives: "top 9 documents except the ground documents").
        """
        if field not in self._fields:
            raise KeyError(f"unknown field {field!r}")
        terms = self.analyzer.analyze(query)
        active = scorer or self.scorer
        excluded = set(exclude or ())
        budget = k + len(excluded)
        hits = [
            SearchHit(doc_id, score)
            for doc_id, score in active.top_k(self._fields[field], terms, budget)
            if doc_id not in excluded
        ]
        return hits[:k]
