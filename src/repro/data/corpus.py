"""The document-collection abstraction shared by every retriever.

A :class:`Corpus` is the stand-in for the paper's 5M-document Wikipedia
dump: documents have titles, bodies, hyperlinks to other documents and a
record of which world facts each sentence verbalizes (used only for gold
supervision, never by retrieval models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.data.world import Entity, Fact


@dataclass
class Document:
    """One corpus document.

    Attributes
    ----------
    doc_id:
        Stable integer id within the corpus.
    title:
        The title entity's name (unique within the corpus).
    text:
        The full body text.
    entity:
        The world entity this document describes.
    links:
        Titles of documents hyperlinked from this one (entity mentions).
    facts:
        World facts verbalized by this document, in sentence order.
    """

    doc_id: int
    title: str
    text: str
    entity: Entity
    links: List[str] = field(default_factory=list)
    facts: List[Fact] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.doc_id}] {self.title}"


class Corpus:
    """An ordered collection of :class:`Document` with title lookup."""

    def __init__(self, documents: Sequence[Document]):
        self._documents = list(documents)
        self._by_title: Dict[str, Document] = {d.title: d for d in self._documents}
        if len(self._by_title) != len(self._documents):
            raise ValueError("duplicate document titles in corpus")

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def by_title(self, title: str) -> Optional[Document]:
        """Look a document up by exact title."""
        return self._by_title.get(title)

    def titles(self) -> List[str]:
        """All document titles, in doc-id order."""
        return [d.title for d in self._documents]

    def neighbours(self, doc: Document) -> List[Document]:
        """Documents hyperlinked from ``doc`` (PathRetriever's search space)."""
        out = []
        for title in doc.links:
            linked = self._by_title.get(title)
            if linked is not None:
                out.append(linked)
        return out
