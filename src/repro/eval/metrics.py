"""Retrieval metrics (paper Sec. IV-A).

* **Paragraph Recall (PR)** — one-hop: at least one ground-truth document
  appears among the retrieved documents.
* **Paragraph Exact Match (PEM)** — path-level: *all* ground-truth
  documents appear among the retrieved documents.
* **path_exact_match** — the Table V variant: some retrieved *path*
  covers the full ground-truth document set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set


def paragraph_recall(retrieved: Iterable[str], gold: Iterable[str]) -> bool:
    """PR for one question: any gold document retrieved."""
    retrieved_set = set(retrieved)
    return any(g in retrieved_set for g in gold)


def paragraph_exact_match(retrieved: Iterable[str], gold: Iterable[str]) -> bool:
    """PEM for one question: every gold document retrieved."""
    retrieved_set = set(retrieved)
    return all(g in retrieved_set for g in gold)


def path_exact_match(
    paths: Sequence[Iterable[str]], gold: Iterable[str]
) -> bool:
    """Table V PEM: some candidate path covers the gold document set."""
    gold_set = set(gold)
    return any(gold_set <= set(path) for path in paths)


@dataclass
class RetrievalScorecard:
    """Accumulates per-question booleans, split by question type.

    Produces the bridge / comparison / total breakdown every table in the
    paper reports.
    """

    hits: Dict[str, List[bool]] = field(default_factory=dict)

    def add(self, qtype: str, hit: bool) -> None:
        self.hits.setdefault(qtype, []).append(bool(hit))

    def rate(self, qtype: str) -> float:
        """Hit rate for one question type (0.0 when empty)."""
        values = self.hits.get(qtype, [])
        return sum(values) / len(values) if values else 0.0

    @property
    def total(self) -> float:
        """Hit rate over all question types pooled."""
        values = [v for series in self.hits.values() for v in series]
        return sum(values) / len(values) if values else 0.0

    def count(self, qtype: str) -> int:
        return len(self.hits.get(qtype, []))
