"""Parallel, incremental corpus ingestion (the offline stage, scaled).

The paper's offline stage — "at the very beginning, we extract a triple
fact set for each document" — is embarrassingly parallel across
documents and almost always *incremental* in practice: a corpus refresh
touches a handful of documents, not all of them. This module provides
both properties without changing a single output byte:

* :func:`extract_corpus_triples` fans coref + OIE union + Algorithm 1
  out over the process's one extraction pool: forked workers, kept
  across calls while the worker count, construction config and linker
  stay the same, so a refresh after the first forks nothing. Chunks of
  documents go to whichever worker is idle, and the results are merged
  keyed by doc id in ascending order; per-document construction is
  deterministic and independent, so the parallel triple store is
  **byte-identical** to the sequential one. The process that constructs
  a document's triples also links it (``E_d`` of Eq. 1 is
  ``linker.link(text)``): the linker handed around is the alias
  dictionary over the corpus titles, the only corpus-wide linking state,
  so a text is read where, and only when, it is extracted.
* :class:`IngestPipeline` adds the incremental layer. Every segment of
  the triple file (:mod:`repro.retriever.store`) carries the content
  hash of the document it was extracted from, and the file's header the
  construction fingerprint (:mod:`repro.ingest.fingerprint`). On rebuild,
  a document is clean exactly when the prior file holds its segment with
  a matching hash; clean segments travel to the new file as bytes,
  unparsed, and only the others re-extract (a clean document is not even
  linked: its triples depend on other documents only through their
  titles, which the construction fingerprint covers). Only documents
  whose flattened triples or encoder changed re-encode (dirty-row
  tracking inside
  :meth:`~repro.retriever.single.SingleRetriever.refresh_embeddings`).
  The two artifacts (triple file, embedding store) are written
  atomically, so an interrupted ingest never corrupts the previous one.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.corpus import Corpus
from repro.index.entity_index import EntityIndex
from repro.ingest.embedding_store import (
    EMBEDDINGS_DIR,
    STORE_NAME,
    EmbeddingStore,
    EmbeddingStoreError,
)
from repro.ingest.fingerprint import (
    construction_fingerprint,
    document_fingerprint,
)
from repro.oie.triple import Triple
from repro.perf import COUNTERS, time_block
from repro.triples.construct import ConstructionConfig, TripleSetConstructor

#: one document as extraction needs it: (doc id, text, title, entity kind)
_Payload = Tuple[int, str, str, Optional[str]]


def _construct(
    constructor: TripleSetConstructor, payload: _Payload
) -> Tuple[int, List[Triple]]:
    """Link one document (``E_d``, Eq. 1) and construct its triples."""
    doc_id, text, title, entity_kind = payload
    linker = constructor.linker
    doc_entities = linker.link(text) if linker is not None else None
    result = constructor.construct_from_text(
        text, title=title, entity_kind=entity_kind, doc_entities=doc_entities
    )
    return doc_id, result.triples


# -- the extraction pool ------------------------------------------------------
# One per process, reused by every call with the same key. Fork-started,
# one Pipe per worker and nothing shared between workers: no task queue,
# lock or handler thread that a worker killed from outside could leave
# held. (The standard library's pool, reused, re-forks workers killed
# that way, then blocks at interpreter exit on its task queue's lock;
# spawn and forkserver leave a resource tracker or server process
# running. DESIGN §5d has the measurements.)
_POOL: Optional["_Pool"] = None
_POOL_LOCK = threading.Lock()
#: how long a closing pool waits for a worker to exit before killing it
_JOIN_TIMEOUT_S = 1.0


def _serve(
    link: Connection,
    config: Optional[ConstructionConfig],
    linker: Optional[EntityIndex],
    inherited: Sequence[Connection],
) -> None:
    """A worker: construct each chunk of payloads it receives, until EOF.

    ``inherited`` are the parent's pipe ends this fork copied; closing
    them leaves the parent the only holder, so each side sees EOF when
    the other closes or dies.
    """
    for conn in inherited:
        conn.close()
    constructor = TripleSetConstructor(config=config, linker=linker)
    try:
        while True:
            chunk = link.recv()
            try:
                reply = [_construct(constructor, payload) for payload in chunk]
            except Exception as error:
                reply = error
            link.send(reply)
    except (EOFError, OSError):
        return  # the parent closed its end, or is gone


class _Pool:
    """``workers`` forked processes, each behind its own ``Pipe``."""

    def __init__(
        self,
        key: Tuple[int, bytes],
        config: Optional[ConstructionConfig],
        linker: Optional[EntityIndex],
    ):
        self.key = key
        self.pid = os.getpid()
        # explicit: Python 3.14 changes the default start method
        context = multiprocessing.get_context("fork")
        self.links: List[Connection] = []
        self.procs: List[multiprocessing.process.BaseProcess] = []
        workers = key[0]
        for _ in range(workers):
            link, child = context.Pipe()
            self.links.append(link)
            proc = context.Process(
                target=_serve,
                args=(child, config, linker, list(self.links)),
                daemon=True,
            )
            proc.start()
            child.close()
            self.procs.append(proc)

    def usable(self, key: Tuple[int, bytes]) -> bool:
        """Same key, this process's own workers, and all of them alive."""
        return (
            self.key == key
            and self.pid == os.getpid()
            and all(proc.is_alive() for proc in self.procs)
        )

    def map(
        self, payloads: List[_Payload], chunksize: int
    ) -> Dict[int, List[Triple]]:
        """Each chunk goes to whichever worker is idle; merged by doc id."""
        chunks = deque(
            payloads[start : start + chunksize]
            for start in range(0, len(payloads), chunksize)
        )
        idle, busy = list(self.links), []
        results: Dict[int, List[Triple]] = {}
        while chunks or busy:
            while chunks and idle:
                link = idle.pop()
                link.send(chunks.popleft())
                busy.append(link)
            for link in wait(busy):
                try:
                    reply = link.recv()
                except EOFError:
                    raise RuntimeError(
                        "an extraction worker exited during the call"
                    ) from None
                if isinstance(reply, Exception):
                    raise reply
                results.update(reply)
                busy.remove(link)
                idle.append(link)
        return dict(sorted(results.items()))

    def close(self) -> None:
        """Close the links; join the workers, killing any that linger."""
        for link in self.links:
            link.close()
        if self.pid != os.getpid():
            return  # a forked copy: the workers belong to another process
        for proc in self.procs:
            proc.join(_JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _close_pool() -> None:
    """Shut the process's extraction pool down, if it has one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.close()
            _POOL = None


atexit.register(_close_pool)


def _extract_pooled(
    payloads: List[_Payload],
    config: Optional[ConstructionConfig],
    linker: Optional[EntityIndex],
    workers: int,
) -> Dict[int, List[Triple]]:
    """Extract over the pool for this key, forking it only when needed.

    Any difference in the key (worker count, config, the linker's
    titles or registered documents) re-forks, so a worker never holds
    state other than what the call passed. A failed call discards the
    pool, so no reply of it can reach the next call.
    """
    global _POOL
    key = (workers, pickle.dumps((config, linker)))
    chunksize = max(1, len(payloads) // (workers * 4))
    with _POOL_LOCK:
        if _POOL is not None and not _POOL.usable(key):
            _POOL.close()
            _POOL = None
        if _POOL is None:
            _POOL = _Pool(key, config, linker)
        try:
            return _POOL.map(payloads, chunksize)
        except BaseException:
            _POOL.close()
            _POOL = None
            raise


def extract_corpus_triples(
    corpus: Corpus,
    linker: Optional[EntityIndex] = None,
    config: Optional[ConstructionConfig] = None,
    workers: int = 1,
    doc_ids: Optional[Sequence[int]] = None,
) -> Dict[int, List[Triple]]:
    """Extraction + Algorithm 1 for ``doc_ids`` (default: whole corpus).

    Returns ``{doc_id: triples}`` in ascending doc-id order regardless of
    worker count — the deterministic-merge guarantee the parity suite
    pins. ``workers <= 1`` runs sequentially in-process (the reference
    path); more workers fan documents out over the process's extraction
    pool, forked on first use and reused by every later call with the
    same worker count, config and linker.

    The ``linker`` is the alias dictionary; documents need not be
    registered with it. Whichever process constructs a document's triples
    links that document's text, so only ``doc_ids`` are ever read.
    Without a linker, Eq. 1 noise pruning is skipped.
    """
    chosen = sorted(doc_ids) if doc_ids is not None else range(len(corpus))
    documents = (corpus[doc_id] for doc_id in chosen)
    payloads = [(d.doc_id, d.text, d.title, d.entity.kind) for d in documents]
    if workers <= 1 or len(payloads) <= 1:
        constructor = TripleSetConstructor(config=config, linker=linker)
        return dict(_construct(constructor, payload) for payload in payloads)
    return _extract_pooled(payloads, config, linker, workers)


# -- the incremental pipeline ----------------------------------------------


@dataclass
class IngestStats:
    """Per-stage counts and wall-clock timings of one ingest run."""

    workers: int = 1
    incremental: bool = True
    docs_total: int = 0
    docs_extracted: int = 0
    docs_reused: int = 0
    triples_total: int = 0
    rows_total: int = 0
    rows_encoded: int = 0
    rows_reused: int = 0
    tokens_encoded: int = 0
    link_seconds: float = 0.0
    extract_seconds: float = 0.0
    encode_seconds: float = 0.0
    save_seconds: float = 0.0

    def summary(self) -> str:
        """Human-readable block (CLI ``repro ingest --stats``)."""
        return "\n".join(
            [
                "ingest stats:",
                f"  documents:  {self.docs_total}"
                f" ({self.docs_extracted} extracted,"
                f" {self.docs_reused} reused)",
                f"  triples:    {self.triples_total}",
                f"  embed rows: {self.rows_total}"
                f" ({self.rows_encoded} encoded, {self.rows_reused} reused)",
                f"  link:       {self.link_seconds * 1e3:.1f} ms",
                f"  extract:    {self.extract_seconds * 1e3:.1f} ms"
                f" ({self.workers} worker(s))",
                f"  encode:     {self.encode_seconds * 1e3:.1f} ms"
                f" ({self.tokens_encoded} tokens,"
                f" {self.tokens_per_sec():.0f} tokens/s)",
                f"  save:       {self.save_seconds * 1e3:.1f} ms",
            ]
        )

    def tokens_per_sec(self) -> float:
        """Encoder token throughput of this run (the ingest ceiling)."""
        if self.encode_seconds <= 0:
            return 0.0
        return self.tokens_encoded / self.encode_seconds


@dataclass
class IngestResult:
    """Everything one :meth:`IngestPipeline.run` produced."""

    store: "TripleStore"
    stats: IngestStats
    embeddings: Optional[EmbeddingStore] = None
    retriever: Optional["SingleRetriever"] = None


class IngestPipeline:
    """Build (or refresh) the offline artifacts for one corpus.

    ``run(cache_dir)`` extracts triples (parallel over ``workers``),
    persists them as ``cache_dir/STORE_NAME`` (one atomic rename; the
    per-document fingerprints live in that file's segments), and — when
    an ``encoder`` is supplied — encodes the flattened triples into a
    persistent :class:`EmbeddingStore` under ``cache_dir/embeddings``.
    With ``incremental=True`` a second run against unchanged inputs
    extracts and encodes nothing.
    """

    def __init__(
        self,
        corpus: Corpus,
        workers: int = 1,
        incremental: bool = True,
    ):
        self.corpus = corpus
        self.construction = ConstructionConfig()
        #: the corpus's alias dictionary, built by the first run and kept
        self.linker: Optional[EntityIndex] = None
        self.workers = max(1, int(workers))
        self.incremental = incremental

    # -- stage 0: the alias dictionary ----------------------------------
    def _ensure_linker(self, stats: IngestStats) -> EntityIndex:
        """The title dictionary — the only corpus-wide linking state.

        Documents are linked where they are extracted (:func:`_construct`),
        so ``link_seconds`` times the dictionary build alone.
        """
        if self.linker is None:
            with time_block() as elapsed:
                self.linker = EntityIndex(self.corpus.titles())
            stats.link_seconds = elapsed()
        return self.linker

    # -- stage 1: extraction --------------------------------------------
    def extract(self, cache_dir: Union[str, Path]) -> IngestResult:
        """Run (incremental, parallel) extraction and persist the store.

        A document is clean only if the prior store holds its record with
        the fingerprint its text has now; a clean document is handed to
        the new store as the bytes it was read as.
        """
        from repro.retriever.store import TripleStore, TripleStoreError

        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        stats = IngestStats(workers=self.workers, incremental=self.incremental)
        linker = self._ensure_linker(stats)
        construction_fp = construction_fingerprint(
            self.construction, self.corpus.titles()
        )
        doc_hashes = {
            document.doc_id: document_fingerprint(
                document.title, document.text, document.entity.kind
            )
            for document in self.corpus
        }
        # an empty prior has no clean document: a cold rebuild
        prior = TripleStore(self.corpus)
        if self.incremental:
            try:
                loaded = TripleStore.load(cache_dir / STORE_NAME, self.corpus)
            except (OSError, TripleStoreError):
                # no prior file, or not one this version wrote
                loaded = prior
            if loaded.construction_fingerprint == construction_fp:
                prior = loaded
        dirty = [
            doc_id
            for doc_id, digest in doc_hashes.items()
            if prior.fingerprint(doc_id) != digest
        ]
        with time_block() as elapsed:
            fresh = extract_corpus_triples(
                self.corpus,
                linker=linker,
                config=self.construction,
                workers=self.workers,
                doc_ids=dirty,
            )
        stats.extract_seconds = elapsed()
        store = TripleStore(self.corpus)
        store.construction_fingerprint = construction_fp
        for doc_id in sorted(doc_hashes):
            if doc_id in fresh:
                store.put(doc_id, fresh[doc_id], doc_hashes[doc_id])
            else:
                store.adopt(prior, doc_id)
        stats.docs_total = len(doc_hashes)
        stats.docs_extracted = len(fresh)
        stats.docs_reused = stats.docs_total - stats.docs_extracted
        stats.triples_total = store.total_triples()
        with time_block() as elapsed:
            store.save(cache_dir / STORE_NAME)
        stats.save_seconds = elapsed()
        return IngestResult(store=store, stats=stats)

    # -- stage 2: encoding ----------------------------------------------
    def encode(
        self,
        result: IngestResult,
        encoder,
        cache_dir: Union[str, Path],
    ) -> IngestResult:
        """Encode the store's triples into a persistent embedding store.

        Warm-starts from a prior ``cache_dir/embeddings`` generation when
        one exists: rows whose flattened triples and encoder fingerprint
        are unchanged are reused verbatim, everything else re-encodes.
        """
        from repro.retriever.single import SingleRetriever

        cache_dir = Path(cache_dir)
        emb_dir = cache_dir / EMBEDDINGS_DIR
        stats = result.stats
        retriever = SingleRetriever(encoder, result.store)
        if self.incremental:
            try:
                retriever.attach_embeddings(EmbeddingStore.open(emb_dir))
            except EmbeddingStoreError:
                # no prior generation (or an unreadable one): cold encode
                retriever.detach_embeddings()
        tokens_before = COUNTERS.encoder_throughput()["tokens"]
        with time_block() as elapsed:
            stats.rows_encoded = retriever.refresh_embeddings()
        stats.encode_seconds = elapsed()
        stats.tokens_encoded = (
            COUNTERS.encoder_throughput()["tokens"] - tokens_before
        )
        stats.rows_total = result.store.total_triples()
        stats.rows_reused = stats.rows_total - stats.rows_encoded
        embeddings = retriever.export_embeddings()
        with time_block() as elapsed:
            embeddings.save(emb_dir)
        stats.save_seconds += elapsed()
        result.embeddings = embeddings
        result.retriever = retriever
        return result

    def run(
        self, cache_dir: Union[str, Path], encoder=None
    ) -> IngestResult:
        """Extract (and, with an ``encoder``, encode) into ``cache_dir``."""
        result = self.extract(cache_dir)
        if encoder is not None:
            result = self.encode(result, encoder, cache_dir)
        return result
