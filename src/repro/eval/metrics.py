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
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple


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


class Outcome(NamedTuple):
    """One question's result, as its row scored it."""

    qtype: str
    hit: bool
    #: the ranked titles (one-hop rows) or paths (path rows) that decided it
    ranked: Tuple = ()
    #: Table V: the first stage that lost a miss; "" for a hit
    stage: str = ""


@dataclass
class RetrievalScorecard:
    """Accumulates per-question outcomes in question order.

    Produces the bridge / comparison / total breakdown every table in the
    paper reports.
    """

    outcomes: List[Outcome] = field(default_factory=list)

    def add(
        self, qtype: str, hit: bool, ranked: Sequence = (), stage: str = ""
    ) -> None:
        self.outcomes.append(Outcome(qtype, bool(hit), tuple(ranked), stage))

    def _hits(self, qtype: Optional[str] = None) -> List[bool]:
        return [o.hit for o in self.outcomes if qtype in (None, o.qtype)]

    def rate(self, qtype: str) -> float:
        """Hit rate for one question type (0.0 when empty)."""
        values = self._hits(qtype)
        return sum(values) / len(values) if values else 0.0

    @property
    def total(self) -> float:
        """Hit rate over all question types pooled."""
        values = self._hits()
        return sum(values) / len(values) if values else 0.0

    def count(self, qtype: str) -> int:
        return len(self._hits(qtype))
