"""Benchmark-side worlds: documents, triples, encoder and questions.

Everything here is a pure function of a :class:`WorldSpec` (and through
it of ``--seed``): documents come from :mod:`repro.data.stream`, triples
from each document's ``facts`` (no OIE on the serving worlds), the
vocabulary and the seed-constructed MiniBERT from the document texts.
Two processes that build the same spec therefore hold bit-identical
encoders, so a worker process can rebuild the world by name
(``"worlds:serving_bundle"``) and memmap-attach the store the benchmark
published without re-encoding a row.

:func:`documents` (input generation) and :func:`build_world` (vocabulary,
encoder, triple store — part of set-up) are memoised per process. Under
the ``fork`` start method the workers inherit the parent's memo; under
``spawn`` they rebuild it, which is slower and gives the same bundle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus, Document
from repro.data.stream import StreamConfig, stream_documents
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.net import ServingBundle
from repro.oie.triple import Triple
from repro.pipeline.multihop import MultiHopConfig
from repro.retriever.store import TripleStore
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.updater.updater import QuestionUpdater, UpdaterConfig

#: seed offsets keeping the question streams of one run decorrelated
_QUESTION_SEED_MIX = 104_729


@dataclass(frozen=True)
class WorldSpec:
    """One world: how many stream documents, which seed, which encoder."""

    n_docs: int
    seed: int
    dim: int = 32
    n_layers: int = 1
    n_heads: int = 2

    def kwargs(self) -> dict:
        """JSON-safe form, as it travels to workers in a ``WorkerSpec``."""
        return dataclasses.asdict(self)


@dataclass
class World:
    """Documents plus everything set-up derives from them."""

    spec: WorldSpec
    corpus: Corpus
    store: TripleStore  # triples taken from ``Document.facts``
    encoder: MiniBertEncoder


@lru_cache(maxsize=2)
def documents(n_docs: int, seed: int) -> Tuple[Document, ...]:
    """The stream documents of one world (input generation, not set-up)."""
    return tuple(stream_documents(StreamConfig(n_docs=n_docs, seed=seed)))


def fact_triples(document: Document) -> List[Triple]:
    """The document's world facts as triples, in sentence order."""
    return [
        Triple(
            subject=fact.subject.name,
            predicate=fact.relation.replace("_", " "),
            object=fact.value_text,
        )
        for fact in document.facts
    ]


@lru_cache(maxsize=2)
def build_world(spec: WorldSpec) -> World:
    """Vocabulary, seed-constructed encoder and fact-triple store."""
    docs = documents(spec.n_docs, spec.seed)
    corpus = Corpus(docs)
    store = TripleStore(corpus)
    for document in docs:
        store.put(document.doc_id, fact_triples(document))
    vocab = Vocab.from_texts([d.text for d in docs], tokenize)
    encoder = MiniBertEncoder(
        vocab,
        EncoderConfig(
            dim=spec.dim,
            n_layers=spec.n_layers,
            n_heads=spec.n_heads,
            max_len=32,
        ),
    )
    encoder.fit_idf([store.field_text(d.doc_id) for d in docs])
    return World(spec=spec, corpus=corpus, store=store, encoder=encoder)


def make_bundle(world: World) -> ServingBundle:
    """The serving bundle of ``world`` (multi-hop parts included)."""
    return ServingBundle(
        encoder=world.encoder,
        store=world.store,
        updater=QuestionUpdater(world.encoder, UpdaterConfig()),
        multihop_config=MultiHopConfig(),
    )


def serving_bundle(**spec_kwargs) -> ServingBundle:
    """Worker-process factory: ``WorkerSpec(target="worlds:serving_bundle")``.

    A worker that finds ``store.json`` in its store directory serves
    those triples instead of the bundle's fact triples, which is how the
    ingest world (triples from OIE) is served by the same factory.
    """
    return make_bundle(build_world(WorldSpec(**spec_kwargs)))


# -- documents that change (the ingest refresh cycles) ----------------------


def touched_ids(
    n_docs: int, seed: int, cycle: int, share: float
) -> List[int]:
    """The documents refresh cycle ``cycle`` rewrites (sorted, distinct)."""
    rng = np.random.RandomState(
        (seed * _QUESTION_SEED_MIX + 7 * cycle + 1) % (2**31 - 1)
    )
    count = max(1, int(round(n_docs * share)))
    return sorted(int(i) for i in rng.choice(n_docs, size=count, replace=False))


def rewrite_bodies(
    docs: Sequence[Document], doc_ids: Sequence[int], cycle: int
) -> List[Document]:
    """``docs`` with the body text of ``doc_ids`` rewritten, titles kept.

    A changed title would change the construction fingerprint (the entity
    universe) and force a full re-extract; a refresh that edits bodies is
    the case the incremental layers exist for.
    """
    out = list(docs)
    for doc_id in doc_ids:
        document = out[doc_id]
        city, club = document.links
        occupation = document.facts[0].value_text
        # outside the stream's 1900-1999, so the body always changes
        year = 2000 + (cycle * 37 + doc_id) % 100
        out[doc_id] = dataclasses.replace(
            document,
            text=(
                f"{document.title} is a {occupation}. "
                f"{document.title} was born in {city}. "
                f"{document.title} was born in {year}. "
                f"{document.title} plays for {club}."
            ),
        )
    return out


# -- questions --------------------------------------------------------------


def unique_questions(world: World, count: int, stream: int) -> List[str]:
    """``count`` distinct bridge-/comparison-shaped questions.

    Each question is templated over an ordered pair of sampled documents.
    Several documents share an (occupation, club) pair, so two pairs can
    render the same bridge question; a string drawn before is drawn
    again, so that no question of one list can hit a result cache.
    ``stream`` decorrelates the phases of one run.
    """
    docs = world.corpus
    n_docs = len(docs)
    rng = np.random.RandomState(
        (world.spec.seed * _QUESTION_SEED_MIX + stream) % (2**31 - 1)
    )
    # the comparison shape alone has n^2 distinct strings
    if count > n_docs * n_docs:
        raise ValueError(
            f"{count} distinct questions do not fit a {n_docs}-doc world"
        )
    out: List[str] = []
    seen = set()
    while len(out) < count:
        for code in rng.randint(2 * n_docs * n_docs, size=count - len(out) + 16):
            shape, pair = divmod(int(code), n_docs * n_docs)
            first, second = docs[pair // n_docs], docs[pair % n_docs]
            if shape == 0:
                question = (
                    f"where was the {first.facts[0].value_text} who plays for "
                    f"{first.links[1]} alongside {second.title} born ?"
                )
            else:
                question = (
                    f"who was born earlier , {first.title} or {second.title} ?"
                )
            if question not in seen:
                seen.add(question)
                out.append(question)
    return out[:count]


def mix_hot(
    unique: Sequence[str],
    hot: Sequence[str],
    hot_share: float,
    seed: int,
) -> List[str]:
    """``unique`` with ``hot_share`` of its slots replaced by hot questions."""
    if not hot or hot_share <= 0.0:
        return list(unique)
    rng = np.random.RandomState(seed % (2**31 - 1))
    repeat = rng.random_sample(len(unique)) < hot_share
    picks = rng.randint(len(hot), size=len(unique))
    return [
        hot[int(picks[i])] if repeat[i] else question
        for i, question in enumerate(unique)
    ]
