"""The triple store: constructed triple-fact sets for a whole corpus.

The offline stage of the paper's pipeline ("At the very beginning, we
extract a triple fact set for each document as the structure
representation") — runs the union extractor + Algorithm 1 over every
document and keeps the results addressable by document id.

On disk the store is one file of per-document *segments*, found with
``bytes.split`` and no JSON parse::

    repro-triples \\t <version> \\t <construction fingerprint> \\t <n docs>
    <doc id> \\t <document fingerprint> \\t <row hash> \\t <n rows> \\t <JSON array of triples>
    ...

A triple is the JSON array of its seven fields, and ``json.dumps``
escapes tabs and newlines, so neither separator occurs inside a segment.
A segment carries everything that vouches for its
triples: the ``document_fingerprint`` of the text they were extracted
from, the ``triples_fingerprint`` of their flattened texts (the
embedding row hash) and their count. A loaded store therefore holds each
document as its segment bytes and answers :meth:`TripleStore.row_hash`,
:meth:`TripleStore.n_triples` and :meth:`TripleStore.save` from them;
``Triple`` objects are parsed on the first ``triples()``/``flattened()``
of a document, and that is where the carried hash and count are checked
against what was parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.data.corpus import Corpus
from repro.index.entity_index import EntityIndex
from repro.ingest.fingerprint import triples_fingerprint
from repro.oie.triple import Triple
from repro.storage.atomic import atomic_write_bytes
from repro.triples.construct import ConstructionConfig

TRIPLES_MAGIC = b"repro-triples"
#: Version 1 was one JSON object ``{doc id: [triple, ...]}`` with the
#: fingerprints in a separate ``ingest_manifest.json``.
TRIPLES_VERSION = 2


class TripleStoreError(ValueError):
    """The triple file is malformed, truncated or from another version."""


@dataclass(slots=True)
class _Record:
    """One document: its triples parsed, as segment bytes, or both."""

    fingerprint: str
    row_hash: Optional[str]  # None: not computed yet (a ``put`` document)
    n_rows: int
    line: Optional[bytes]  # the whole segment as read; None for a ``put``
    triples: Optional[List[Triple]]  # None: not parsed yet


def _parse_segment(doc_id: int, record: _Record) -> List[Triple]:
    """Parse one carried segment and hold it to its own hash and count."""
    try:
        triples = [
            Triple(subject, predicate, obj, tuple(extra), source, index, conf)
            for subject, predicate, obj, extra, source, index, conf
            in json.loads(record.line.split(b"\t", 4)[4])
        ]
        row_hash = triples_fingerprint([t.flatten() for t in triples])
    except (TypeError, ValueError) as error:
        raise TripleStoreError(
            f"document {doc_id}: unreadable triples: {error!r}"
        ) from error
    if len(triples) != record.n_rows or row_hash != record.row_hash:
        raise TripleStoreError(
            f"document {doc_id}: segment says {record.n_rows} rows hashing "
            f"to {record.row_hash}, its triples are {len(triples)} rows "
            f"hashing to {row_hash}"
        )
    return triples


class TripleStore:
    """Maps ``doc_id`` -> constructed triple fact set ``T_d``.

    A triple list handed to :meth:`put` or returned by :meth:`triples` is
    the store's own: replace a document's triples with another ``put``,
    never by editing the list.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        #: what Algorithm 1 ran under (``""``: not an ingest's store)
        self.construction_fingerprint = ""
        self._records: Dict[int, _Record] = {}

    def put(
        self, doc_id: int, triples: Sequence[Triple], fingerprint: str = ""
    ) -> None:
        """Set a document's triples (``fingerprint``: of the text they
        were extracted from, when the caller tracks one)."""
        triples = list(triples)
        self._records[doc_id] = _Record(
            fingerprint, row_hash=None, n_rows=len(triples), line=None,
            triples=triples,
        )

    def adopt(self, prior: "TripleStore", doc_id: int) -> None:
        """Take ``doc_id`` over from ``prior`` as it is held there —
        segment bytes stay bytes, nothing is parsed or re-serialised."""
        self._records[doc_id] = prior._records[doc_id]

    def triples(self, doc_id: int) -> List[Triple]:
        """The triple set of a document (empty if nothing was extracted).

        Raises :class:`TripleStoreError` when this is the first look at a
        loaded segment and its triples do not match the hash and count it
        carries.
        """
        record = self._records.get(doc_id)
        if record is None:
            return []
        triples = record.triples
        if triples is None:
            # two threads may both parse; they assign equal lists
            triples = record.triples = _parse_segment(doc_id, record)
        return triples

    def flattened(self, doc_id: int) -> List[str]:
        """Sentence-flattened triples, ready for encoding/indexing."""
        return [t.flatten() for t in self.triples(doc_id)]

    def field_text(self, doc_id: int) -> str:
        """All flattened triples joined — the BM25 "triple fact field"."""
        return " . ".join(self.flattened(doc_id))

    def fingerprint(self, doc_id: int) -> Optional[str]:
        """The ``document_fingerprint`` a document's triples were
        extracted under; ``None`` when the store has no such document."""
        record = self._records.get(doc_id)
        return None if record is None else record.fingerprint

    def row_hash(self, doc_id: int) -> str:
        """``triples_fingerprint`` of a held document's flattened triples
        (the embedding row hash) — carried, not recomputed, for a loaded
        segment."""
        record = self._records[doc_id]
        if record.row_hash is None:
            record.row_hash = triples_fingerprint(self.flattened(doc_id))
        return record.row_hash

    def n_triples(self, doc_id: int) -> int:
        """How many triples (embedding rows) a held document has."""
        return self._records[doc_id].n_rows

    def doc_ids(self) -> List[int]:
        return sorted(self._records)

    def total_triples(self) -> int:
        return sum(record.n_rows for record in self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    # -- persistence ------------------------------------------------------
    def _segment(self, doc_id: int) -> bytes:
        record = self._records[doc_id]
        if record.line is not None:
            return record.line
        payload = json.dumps(  # a triple: its fields, in field order
            [
                [t.subject, t.predicate, t.object, t.extra_objects,
                 t.source, t.sentence_index, t.confidence]
                for t in record.triples
            ]
        )
        return (
            f"{doc_id}\t{record.fingerprint}\t{self.row_hash(doc_id)}"
            f"\t{record.n_rows}\t{payload}"
        ).encode("ascii")

    def save(self, path: Union[str, Path]) -> None:
        """Write every segment to ``path`` (atomically).

        Segments follow insertion order and a segment is a function of
        its document alone, so two stores built by putting the same
        triples in the same doc-id order save to byte-identical files —
        the property the ingest parity suite pins. A carried segment is
        written back as the bytes it was read as.
        """
        lines = [
            b"%s\t%d\t%s\t%d"
            % (
                TRIPLES_MAGIC,
                TRIPLES_VERSION,
                self.construction_fingerprint.encode("ascii"),
                len(self._records),
            )
        ]
        lines.extend(self._segment(doc_id) for doc_id in self._records)
        lines.append(b"")
        atomic_write_bytes(Path(path), b"\n".join(lines))

    @classmethod
    def load(cls, path: Union[str, Path], corpus: Corpus) -> "TripleStore":
        """Restore a store saved by :meth:`save` for the same corpus.

        Splits the file into segments and reads their headers; triples
        stay bytes until asked for. ``OSError`` when the file cannot be
        read, :class:`TripleStoreError` when it is not a whole
        version-``TRIPLES_VERSION`` file.
        """
        path = Path(path)
        lines = path.read_bytes().split(b"\n")
        header = lines[0].split(b"\t")
        if header[:2] != [TRIPLES_MAGIC, b"%d" % TRIPLES_VERSION]:
            raise TripleStoreError(
                f"{path} is not a triple store of format version "
                f"{TRIPLES_VERSION}: it starts {lines[0][:32]!r} (version 1 "
                "was one JSON object); re-ingest to rebuild it"
            )
        if lines.pop() != b"":
            raise TripleStoreError(f"{path}: truncated last segment")
        store = cls(corpus)
        records = store._records
        try:
            construction_fp, n_docs = header[2:]
            store.construction_fingerprint = construction_fp.decode("ascii")
            expected = int(n_docs)
            for line in lines[1:]:
                doc_id, fingerprint, row_hash, n_rows, _ = line.split(b"\t", 4)
                records[int(doc_id)] = _Record(
                    fingerprint.decode("ascii"),
                    row_hash.decode("ascii"),
                    int(n_rows),
                    line=line,
                    triples=None,
                )
        except ValueError as error:  # too few fields, not a number, not ASCII
            raise TripleStoreError(
                f"{path}: malformed segment header: {error}"
            ) from error
        if not len(records) == len(lines) - 1 == expected:
            raise TripleStoreError(
                f"{path}: header says {expected} documents, file holds "
                f"{len(lines) - 1} segments of {len(records)} distinct ids"
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
