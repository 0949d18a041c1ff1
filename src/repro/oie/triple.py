"""The triple-fact data structure (paper Definition 2).

A triple fact ``<subject, predicate, object>`` captures one relationship.
Fusion triples (created when sibling triples are merged, Sec. III-A) carry
additional objects in ``extra_objects`` — the paper's
``[Staughton Craig Lynd, is, American conscientious objector, Quaker]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.text.tokenize import tokenize


@dataclass(frozen=True)
class Triple:
    """An immutable triple fact.

    Attributes
    ----------
    subject, predicate, object:
        The three constituents, as surface text.
    extra_objects:
        Additional objects from sibling fusion (empty for plain triples).
    source:
        Which extractor produced it ("pattern", "minie", "fusion", ...).
    sentence_index:
        Index of the source sentence within its document.
    confidence:
        Extractor confidence in [0, 1].
    """

    subject: str
    predicate: str
    object: str
    extra_objects: Tuple[str, ...] = ()
    source: str = ""
    sentence_index: int = -1
    confidence: float = 1.0

    def flatten(self) -> str:
        """Render the triple as a sentence-like string for encoding/indexing.

        This is the "flatten the triple fact to a sentence-level
        representation" step of the paper's text encoder.
        """
        parts = [self.subject, self.predicate, self.object]
        parts.extend(self.extra_objects)
        return " ".join(p for p in parts if p)

    def tokens(self) -> List[str]:
        """Lower-cased word tokens of the flattened triple."""
        return tokenize(self.flatten())

    def content_key(self) -> Tuple[str, str, Tuple[str, ...]]:
        """Identity key ignoring provenance: (subject, predicate, objects)."""
        objects = (self.object,) + self.extra_objects
        return (
            self.subject.lower(),
            self.predicate.lower(),
            tuple(o.lower() for o in objects),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        objects = ", ".join((self.object,) + self.extra_objects)
        return f"<{self.subject}, {self.predicate}, {objects}>"
