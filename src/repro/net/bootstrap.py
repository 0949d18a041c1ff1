"""Importable serving-bundle factories for worker processes.

A worker process cannot be handed live encoder/retriever objects — it is
spawned fresh and must *rebuild* them. What travels over the process
boundary is a :class:`WorkerSpec`-style target string
(``"module:function"``) plus JSON-safe kwargs; the named factory runs in
the worker and returns a :class:`ServingBundle` (encoder + triple store
+ updater + configs). Determinism does the rest: every repo encoder is
seed-constructed, so two processes running the same factory hold
bit-identical weights, their :func:`~repro.ingest.fingerprint.
encoder_fingerprint` matches the published store manifest, and
memmap-attaching the store re-encodes **nothing**.

:class:`DyadicEncoder` lives here (promoted from the serve test suite)
because cross-process byte-identity proofs need an encoder whose scores
are exact dyadic rationals — bitwise invariant to batch shape — and the
worker must be able to import it by name.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.data.corpus import Corpus, Document
from repro.data.documents import build_corpus
from repro.data.hotpot import build_hotpot_dataset
from repro.data.world import Entity, World, WorldConfig
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.ingest.embedding_store import EMBEDDINGS_DIR, STORE_NAME
from repro.oie.triple import Triple
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.precision import PrecisionLike
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.updater.updater import QuestionUpdater, UpdaterConfig


def resolve_target(target: str) -> Callable[..., "ServingBundle"]:
    """Import a ``"module:function"`` bundle factory by name."""
    module_name, _, attr = target.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"target {target!r} is not of the form 'module:function'"
        )
    factory = getattr(import_module(module_name), attr, None)
    if not callable(factory):
        raise ValueError(f"target {target!r} does not name a callable")
    return factory


class _UnitVocab:
    """One-token vocab with uniform IDF: every token maps to weight 1.0.

    Enough surface for :class:`~repro.updater.updater.QuestionUpdater`'s
    novelty scalars (``id_of`` + weight lookup) and for
    :func:`~repro.ingest.fingerprint.encoder_fingerprint` (``token_of``
    enumeration). Uniform integer-valued weights keep every derived
    statistic an exact float — batch- and process-invariant.
    """

    def __len__(self) -> int:
        return 1

    def id_of(self, token: str) -> int:
        return 0

    def token_of(self, index: int) -> str:
        return "<any>"


class DyadicEncoder:
    """Deterministic encoder whose cosines are exact dyadic rationals.

    Embedding entries are 0/±1 with exactly ``nonzeros`` nonzero slots,
    seeded per-text by crc32 — so normalized entries and cosines are
    dyadic rationals, float addition over them is exact hence
    associative, and the scoring matmul is bitwise identical for any
    batch shape *and any process*. The cross-process parity tests lean
    on exactly this.
    """

    def __init__(self, dim: int = 32, nonzeros: int = 16):
        self.config = SimpleNamespace(dim=dim, nonzeros=nonzeros)
        self.nonzeros = nonzeros
        self.vocab = _UnitVocab()
        self._token_weights = np.ones(1)

    def encode_numpy(self, texts, batch_size: int = 64) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.config.dim))
        rows = []
        for text in texts:
            rng = np.random.RandomState(
                zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF
            )
            vec = np.zeros(self.config.dim)
            index = rng.choice(
                self.config.dim, size=self.nonzeros, replace=False
            )
            vec[index] = rng.choice([-1.0, 1.0], size=self.nonzeros)
            rows.append(vec)
        return np.stack(rows)


@dataclass
class ServingBundle:
    """Everything a worker needs to stand up (and hot-swap) retrievers.

    ``make_retriever`` builds a *fresh* :class:`SingleRetriever` each
    call — hot reload must never mutate the retriever the in-flight
    service is still scoring with, so each store generation gets its own
    retriever/multihop pair and the old one drains untouched.
    """

    encoder: Any
    store: TripleStore
    updater: Optional[QuestionUpdater] = None
    multihop_config: Optional[MultiHopConfig] = None
    precision: PrecisionLike = None
    #: deterministic replay questions (benches / tests), may be empty
    questions: List[str] = field(default_factory=list)

    @property
    def corpus(self) -> Corpus:
        return self.store.corpus

    def make_retriever(
        self, store: Optional[TripleStore] = None
    ) -> SingleRetriever:
        return SingleRetriever(
            self.encoder, store or self.store, precision=self.precision
        )

    def make_multihop(
        self, retriever: SingleRetriever
    ) -> Optional[MultiHopRetriever]:
        if self.updater is None:
            return None
        return MultiHopRetriever(
            retriever, self.updater, self.multihop_config
        )


def synthetic_bundle(
    seed: int = 29,
    n_docs: int = 48,
    triples_per_doc: int = 4,
    dim: int = 32,
    encoder: str = "dyadic",
    multihop: bool = True,
    n_questions: int = 32,
) -> ServingBundle:
    """A fully deterministic synthetic corpus + encoder bundle.

    ``encoder="dyadic"`` gives exact cross-process byte-identity (parity
    tests); ``encoder="minibert"`` pays real encode cost (benchmarks).
    Identical arguments produce bit-identical bundles in any process.
    """
    rng = np.random.RandomState(seed)
    documents = []
    rows: Dict[int, List[Triple]] = {}
    for doc_id in range(n_docs):
        title = f"Doc {doc_id}"
        triples = [
            Triple(
                subject=title,
                predicate=f"pred{rng.randint(50)}",
                object=f"obj{rng.randint(50)} tail{rng.randint(50)}",
            )
            for _ in range(triples_per_doc)
        ]
        documents.append(
            Document(
                doc_id=doc_id,
                title=title,
                text=" ".join(t.flatten() for t in triples),
                entity=Entity(uid=doc_id, name=title, kind="synthetic"),
            )
        )
        rows[doc_id] = triples
    store = TripleStore(Corpus(documents))
    for doc_id, triples in rows.items():
        store.put(doc_id, triples)
    questions = [
        f"which document mentions obj{rng.randint(50)} "
        f"tail{rng.randint(50)} ?"
        for _ in range(n_questions)
    ]
    if encoder == "dyadic":
        enc: Any = DyadicEncoder(dim=dim)
    elif encoder == "minibert":
        vocab = Vocab.from_texts(
            [d.text for d in documents] + questions, tokenize
        )
        enc = MiniBertEncoder(
            vocab, EncoderConfig(dim=dim, n_layers=1, n_heads=2, max_len=32)
        )
        enc.fit_idf([store.field_text(d.doc_id) for d in documents])
    else:
        raise ValueError(f"unknown encoder kind {encoder!r}")
    updater = (
        QuestionUpdater(enc, UpdaterConfig()) if multihop else None
    )
    return ServingBundle(
        encoder=enc,
        store=store,
        updater=updater,
        multihop_config=MultiHopConfig() if multihop else None,
        questions=questions,
    )


def load_model_dir(model_dir: str):
    """Load a ``repro build`` model directory: the one ``meta.json`` reader.

    The world/corpus/dataset regenerate from the persisted seed, then
    the trained system loads on top — so the CLI and every worker
    process converge on the same encoder weights and triple store as the
    process that saved the model. Returns ``(system, world, corpus,
    dataset)``.
    """
    from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval

    directory = Path(model_dir)
    meta = json.loads((directory / "meta.json").read_text())
    world = World(WorldConfig(**meta["world"]))
    corpus = build_corpus(world)
    dataset = build_hotpot_dataset(world, corpus, **meta["dataset"])
    config = FrameworkConfig(encoder=EncoderConfig(**meta["encoder"]))
    system = TripleFactRetrieval.load(directory, corpus, config=config)
    return system, world, corpus, dataset


def model_dir_bundle(model_dir: str) -> ServingBundle:
    """Bundle a trained ``repro build`` model directory for serving."""
    system, _world, _corpus, dataset = load_model_dir(model_dir)
    return ServingBundle(
        encoder=system.retriever.encoder,
        store=system.retriever.store,
        updater=system.multihop.updater if system.multihop else None,
        multihop_config=(
            system.multihop.config if system.multihop else None
        ),
        questions=[q.text for q in dataset.test],
    )


def publish_store(
    bundle: ServingBundle,
    out_dir: str,
    store: Optional[TripleStore] = None,
) -> int:
    """Publish a store generation the way ``repro ingest`` lays it out.

    Writes ``STORE_NAME`` (the per-document triple segments, each with
    its row hash) and then ``embeddings/`` (the versioned matrix
    manifest) under ``out_dir`` — the order of
    ``IngestPipeline.run``, so the manifest's atomic rename, the write a
    ``--watch-store`` poll reads the generation from, is the last one:
    whoever sees the new generation finds the triples that go with it.
    Returns the new generation number. Saving into a directory that
    already holds a generation bumps the counter — this is the
    hot-reload publish event the supervisor watches for.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    active = store or bundle.store
    retriever = bundle.make_retriever(active)
    retriever.refresh_embeddings()
    embeddings = retriever.export_embeddings()
    active.save(out / STORE_NAME)
    embeddings.save(out / EMBEDDINGS_DIR)
    return embeddings.generation
