"""Experiment context: builds and caches everything the benches share.

One :class:`ExperimentContext` holds the world, corpus, datasets, triple
stores (constructed + per-extractor), indexes, the trained Triple-Fact
Retrieval system and the trained baselines. Building the trained models is
expensive (minutes of CPU fine-tuning), so the context is lazy — each
component is built on first use — and module-cached so every benchmark in
one pytest session reuses the same trained system.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (default, minutes) or ``full`` (tens of minutes, closer shape
fidelity).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.hop_retriever import HopRetrieverBaseline
from repro.baselines.lexical import LexicalRetriever
from repro.baselines.mdr import MDRRetriever
from repro.baselines.path_retriever import PathRetrieverBaseline, PathRetrieverConfig
from repro.baselines.dense_base import DenseConfig
from repro.baselines.tprr import TPRRRetriever
from repro.data.corpus import Corpus
from repro.data.documents import build_corpus
from repro.data.hotpot import HotpotDataset, build_hotpot_dataset
from repro.data.wikihop import WikihopQuery, build_wikihop_dataset
from repro.data.world import World, WorldConfig
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.index.entity_index import EntityIndex
from repro.oie.union import extract_document
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval
from repro.pipeline.multihop import MultiHopConfig
from repro.pipeline.path_ranker import PathRankerConfig
from repro.retriever.negatives import mine_training_examples
from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.trainer import TrainerConfig
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.updater.updater import UpdaterConfig


@dataclass
class ExperimentScale:
    """Sizing of one benchmark run."""

    name: str
    world: WorldConfig
    comparison_per_kind: int
    retriever_epochs: int = 3
    baseline_epochs: int = 2
    n_eval: int = 150


#: every scale's question mix: the share of bridge questions that describe
#: their first-hop entity instead of naming it, and that name it in part
DESCRIPTIVE_PROB = 0.45
PARTIAL_NAME_PROB = 0.2
#: every scale's encoder and retriever learning rate
ENCODER = EncoderConfig(dim=96, n_layers=1, n_heads=4, max_len=40)
RETRIEVER_LR = 3e-4


SMALL = ExperimentScale(
    name="small",
    world=WorldConfig(
        n_persons=70,
        n_clubs=20,
        n_bands=20,
        n_cities=25,
        n_countries=6,
        n_companies=10,
        n_films=14,
        n_universities=8,
        n_awards=6,
        seed=13,
    ),
    comparison_per_kind=15,
    retriever_epochs=2,
    baseline_epochs=1,
    n_eval=100,
)

FULL = ExperimentScale(
    name="full",
    world=WorldConfig(
        n_persons=150,
        n_clubs=40,
        n_bands=40,
        n_cities=50,
        n_countries=8,
        n_companies=20,
        n_films=30,
        n_universities=15,
        n_awards=10,
        seed=13,
    ),
    comparison_per_kind=30,
    retriever_epochs=3,
    baseline_epochs=2,
    n_eval=150,
)


def current_scale() -> ExperimentScale:
    """The scale selected by REPRO_BENCH_SCALE (small | full)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    return FULL if name == "full" else SMALL


#: the raw extraction stores of :meth:`ExperimentContext.extractor_store`
EXTRACTOR_STORES = ("minie", "stanford", "union")
#: Wikihop validation queries scored (the paper gives no count)
WIKIHOP_QUERIES = 60


class ExperimentContext:
    """Lazily built, shared experiment state."""

    def __init__(self):
        self.scale = current_scale()
        self._world: Optional[World] = None
        self._corpus: Optional[Corpus] = None
        self._hotpot: Optional[HotpotDataset] = None
        self._linker: Optional[EntityIndex] = None
        self._store: Optional[TripleStore] = None
        self._extractor_stores: Dict[str, TripleStore] = {}
        self._wikihop: Optional[List[WikihopQuery]] = None
        self._lexical: Optional[LexicalRetriever] = None
        self._system: Optional[TripleFactRetrieval] = None
        self._baselines: Dict[str, object] = {}

    # -- data ------------------------------------------------------------
    @property
    def world(self) -> World:
        if self._world is None:
            self._world = World(self.scale.world)
        return self._world

    @property
    def corpus(self) -> Corpus:
        if self._corpus is None:
            self._corpus = build_corpus(self.world)
        return self._corpus

    @property
    def hotpot(self) -> HotpotDataset:
        if self._hotpot is None:
            self._hotpot = build_hotpot_dataset(
                self.world,
                self.corpus,
                comparison_per_kind=self.scale.comparison_per_kind,
                descriptive_prob=DESCRIPTIVE_PROB,
                partial_name_prob=PARTIAL_NAME_PROB,
            )
        return self._hotpot

    @property
    def eval_questions(self):
        return self.hotpot.test[: self.scale.n_eval]

    @property
    def train_sample(self):
        return self.hotpot.train[: self.scale.n_eval]

    @property
    def wikihop_queries(self) -> List[WikihopQuery]:
        """The Wikihop-style (subject, relation, ?) validation queries."""
        if self._wikihop is None:
            self._wikihop = build_wikihop_dataset(
                self.world, self.corpus, max_queries=WIKIHOP_QUERIES * 5
            ).validation[:WIKIHOP_QUERIES]
        return self._wikihop

    @property
    def linker(self) -> EntityIndex:
        if self._linker is None:
            self._linker = EntityIndex(self.corpus.titles())
            for document in self.corpus:
                self._linker.add_document(document.doc_id, document.text)
        return self._linker

    @property
    def store(self) -> TripleStore:
        """The constructed triple store (Algorithm 1 over pattern ∪ MinIE)."""
        if self._store is None:
            self._store = build_triple_store(self.corpus, linker=self.linker)
        return self._store

    def extractor_store(self, which: str) -> TripleStore:
        """Raw extraction stores (no Algorithm 1), all from one pass.

        ``which``: "minie" or "stanford" — one tool's own output, as the
        paper's MinIE-TFS / StanfordIE-TFS columns of Table III use it —
        or "union", the set ``T_o`` of the Sec. IV-D ablation.
        """
        if which not in EXTRACTOR_STORES:
            raise ValueError(
                f"unknown extractor store {which!r}; "
                f"expected one of {', '.join(EXTRACTOR_STORES)}"
            )
        if not self._extractor_stores:
            stores = {name: TripleStore(self.corpus) for name in EXTRACTOR_STORES}
            for document in self.corpus:
                extraction = extract_document(
                    document.text,
                    title=document.title,
                    entity_kind=document.entity.kind,
                )
                stores["minie"].put(document.doc_id, extraction.minie)
                stores["stanford"].put(document.doc_id, extraction.pattern)
                stores["union"].put(document.doc_id, extraction.union)
            self._extractor_stores = stores
        return self._extractor_stores[which]

    @property
    def lexical(self) -> LexicalRetriever:
        """BM25 over text + constructed-TFS + per-extractor fields."""
        if self._lexical is None:
            extra = {
                "minie_triples": {
                    d.doc_id: self.extractor_store("minie").field_text(d.doc_id)
                    for d in self.corpus
                },
                "stanford_triples": {
                    d.doc_id: self.extractor_store("stanford").field_text(d.doc_id)
                    for d in self.corpus
                },
            }
            self._lexical = LexicalRetriever(
                self.corpus, store=self.store, extra_fields=extra
            )
        return self._lexical

    # -- trained systems ------------------------------------------------------
    @property
    def system(self) -> TripleFactRetrieval:
        """The trained Triple-Fact Retrieval system (cached)."""
        if self._system is None:
            scale = self.scale
            config = FrameworkConfig(
                encoder=ENCODER,
                retriever=TrainerConfig(
                    epochs=scale.retriever_epochs, lr=RETRIEVER_LR
                ),
                updater=UpdaterConfig(epochs=3),
                ranker=PathRankerConfig(epochs=3),
                multihop=MultiHopConfig(k_hop1=8, k_hop2=4, k_paths=8),
                max_ranker_questions=min(150, len(self.hotpot.train)),
                verbose=bool(os.environ.get("REPRO_VERBOSE")),
            )
            system = TripleFactRetrieval(config)
            system.fit(self.corpus, self.hotpot)
            self._system = system
        return self._system

    def _shared_vocab(self) -> Vocab:
        texts = [d.text for d in self.corpus] + [
            q.text for q in self.hotpot.train
        ]
        return Vocab.from_texts(texts, tokenize)

    def _new_encoder(self, seed: int) -> MiniBertEncoder:
        config = EncoderConfig(**{**ENCODER.__dict__, "seed": seed})
        encoder = MiniBertEncoder(self._shared_vocab(), config)
        encoder.fit_idf([self.store.field_text(d.doc_id) for d in self.corpus])
        return encoder

    def baseline(self, name: str):
        """Trained baseline retrievers, built on demand.

        Names: "tprr", "mdr", "hop", "path".
        """
        if name in self._baselines:
            return self._baselines[name]
        scale = self.scale
        # dense baselines: lr 3e-4 measurably degrades the full-text
        # bi-encoders below their untrained quality; 1e-4 is their stable
        # regime on this corpus
        dense_config = DenseConfig(epochs=scale.baseline_epochs, lr=1e-4)
        if name == "tprr":
            instance = TPRRRetriever(
                self._new_encoder(seed=41), self.corpus, dense_config
            )
            instance.train(self._mined_examples())
        elif name == "mdr":
            instance = MDRRetriever(
                self._new_encoder(seed=42), self.corpus, dense_config
            )
            instance.train(self._mined_examples())
        elif name == "hop":
            instance = HopRetrieverBaseline(
                self._new_encoder(seed=43),
                self.corpus,
                linker=self.linker,
                config=dense_config,
            )
            instance.train(self._mined_examples())
        elif name == "path":
            instance = PathRetrieverBaseline(
                self._new_encoder(seed=44),
                self.corpus,
                config=PathRetrieverConfig(epochs=scale.baseline_epochs),
            )
            instance.train(self.hotpot.train)
        else:
            raise ValueError(f"unknown baseline {name!r}")
        self._baselines[name] = instance
        return instance

    def _mined_examples(self):
        if not hasattr(self, "_examples_cache"):
            self._examples_cache = mine_training_examples(
                self.hotpot.train, self.corpus, self.store
            )
        return self._examples_cache


_CONTEXT: Optional[ExperimentContext] = None


def shared_context() -> ExperimentContext:
    """The process-wide experiment context (built once per pytest run)."""
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = ExperimentContext()
    return _CONTEXT
