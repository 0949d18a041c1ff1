"""The triple store: constructed triple-fact sets for a whole corpus.

The offline stage of the paper's pipeline ("At the very beginning, we
extract a triple fact set for each document as the structure
representation") — runs the union extractor + Algorithm 1 over every
document and keeps the results addressable by document id.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.data.corpus import Corpus, Document
from repro.index.entity_index import EntityIndex
from repro.oie.triple import Triple
from repro.storage.atomic import atomic_write_text
from repro.triples.construct import ConstructionConfig, TripleSetConstructor


class TripleStore:
    """Maps ``doc_id`` -> constructed triple fact set ``T_d``."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._triples: Dict[int, List[Triple]] = {}

    def put(self, doc_id: int, triples: Sequence[Triple]) -> None:
        self._triples[doc_id] = list(triples)

    def triples(self, doc_id: int) -> List[Triple]:
        """The triple set of a document (empty if nothing was extracted)."""
        return self._triples.get(doc_id, [])

    def flattened(self, doc_id: int) -> List[str]:
        """Sentence-flattened triples, ready for encoding/indexing."""
        return [t.flatten() for t in self.triples(doc_id)]

    def field_text(self, doc_id: int) -> str:
        """All flattened triples joined — the BM25 "triple fact field"."""
        return " . ".join(self.flattened(doc_id))

    def doc_ids(self) -> List[int]:
        return sorted(self._triples)

    def total_triples(self) -> int:
        return sum(len(v) for v in self._triples.values())

    def __len__(self) -> int:
        return len(self._triples)

    # -- persistence ------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Serialize all triple sets to a JSON file (written atomically).

        Serialization follows insertion order, so two stores built by
        putting the same triples in the same doc-id order save to
        byte-identical files — the property the ingest parity suite pins.
        """
        payload = {
            str(doc_id): [
                {
                    "s": t.subject,
                    "p": t.predicate,
                    "o": t.object,
                    "x": list(t.extra_objects),
                    "src": t.source,
                    "i": t.sentence_index,
                    "c": t.confidence,
                }
                for t in triples
            ]
            for doc_id, triples in self._triples.items()
        }
        atomic_write_text(Path(path), json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path], corpus: Corpus) -> "TripleStore":
        """Restore a store saved by :meth:`save` for the same corpus."""
        payload = json.loads(Path(path).read_text())
        store = cls(corpus)
        for doc_id, rows in payload.items():
            store.put(
                int(doc_id),
                [
                    Triple(
                        subject=row["s"],
                        predicate=row["p"],
                        object=row["o"],
                        extra_objects=tuple(row["x"]),
                        source=row["src"],
                        sentence_index=row["i"],
                        confidence=row["c"],
                    )
                    for row in rows
                ],
            )
        return store


def build_triple_store(
    corpus: Corpus,
    linker: Optional[EntityIndex] = None,
    config: Optional[ConstructionConfig] = None,
    workers: int = 1,
) -> TripleStore:
    """Run extraction + Algorithm 1 over the whole corpus.

    When no ``linker`` is given, the alias dictionary is built from the
    corpus titles (the title dictionary is exactly the entity universe of
    a Wikipedia dump); each document is linked as it is extracted, so a
    ``linker`` passed in need not have the documents registered.
    ``workers > 1`` fans extraction out over a process pool; the result
    is byte-identical to the sequential build (deterministic merge in
    ascending doc-id order — see :mod:`repro.ingest.pipeline`).
    """
    from repro.ingest.pipeline import extract_corpus_triples

    if linker is None:
        linker = EntityIndex(corpus.titles())
    triples_by_doc = extract_corpus_triples(
        corpus,
        linker=linker,
        config=config,
        workers=workers,
    )
    store = TripleStore(corpus)
    for doc_id, triples in triples_by_doc.items():
        store.put(doc_id, triples)
    return store
