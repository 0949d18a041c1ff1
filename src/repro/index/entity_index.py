"""Entity index: surface-form entity linking over a corpus.

Linking is longest-match-first exact phrase matching over a dictionary of
known entity names — the standard "mention dictionary" linker. The
dictionary is all :meth:`EntityIndex.link` needs: ``link(text)`` of a
document's text is its linked-entity set (``E_d`` in Eq. 1, the
relatedness score), and ingestion links each document where it extracts
it (:mod:`repro.ingest.pipeline`). Registering documents
(:meth:`~EntityIndex.add_document` / :meth:`~EntityIndex.entities_of`)
only remembers ``link(text)`` per doc id, for the callers that look
entities up by document: the GoldEn and HopRetriever baselines.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.text.tokenize import tokenize


class EntityIndex:
    """Dictionary-based entity linker + per-document linked entities."""

    def __init__(self, entity_names: Iterable[str]):
        entity_names = list(entity_names)
        self._names: Set[str] = set(entity_names)
        # token-tuple -> canonical name, longest matches first at query time.
        # Input order, first name wins: iterating the set would let
        # PYTHONHASHSEED pick the canonical name of two titles that
        # tokenise alike, so two processes could link the same bytes apart.
        self._by_tokens: Dict[tuple, str] = {}
        self._max_len = 1
        for name in entity_names:
            key = tuple(tokenize(name))
            if key and key not in self._by_tokens:
                self._by_tokens[key] = name
                self._max_len = max(self._max_len, len(key))
        self._doc_entities: Dict[int, List[str]] = {}

    # -- linking ----------------------------------------------------------
    def link(self, text: str) -> List[str]:
        """Return entity names mentioned in ``text`` (greedy longest match).

        Each text position is consumed by at most one mention, so nested
        mentions resolve to the longest span.
        """
        tokens = tokenize(text)
        found: List[str] = []
        seen: Set[str] = set()
        i = 0
        n = len(tokens)
        while i < n:
            matched = False
            for length in range(min(self._max_len, n - i), 0, -1):
                key = tuple(tokens[i : i + length])
                name = self._by_tokens.get(key)
                if name is not None:
                    if name not in seen:
                        seen.add(name)
                        found.append(name)
                    i += length
                    matched = True
                    break
            if not matched:
                i += 1
        return found

    # -- corpus registration ----------------------------------------------
    def add_document(self, doc_id: int, text: str) -> List[str]:
        """Link ``text`` and record the result for ``doc_id`` (replacing
        whatever an earlier registration of ``doc_id`` recorded)."""
        entities = self.link(text)
        self._doc_entities[doc_id] = entities
        return entities

    def entities_of(self, doc_id: int) -> List[str]:
        """Linked entities of ``doc_id`` (``E_d``)."""
        return list(self._doc_entities.get(doc_id, ()))

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)
