"""Shared fixtures: one tiny world/corpus/store per test session.

Kept deliberately small so the whole suite runs in well under a minute;
quality-sensitive behaviour is exercised by the benchmarks, not here.
"""

import numpy as np
import pytest

import repro.retriever.store as store_mod
from repro.data import World, WorldConfig, build_corpus, build_hotpot_dataset
from repro.encoder import EncoderConfig, MiniBertEncoder
from repro.retriever import SingleRetriever, build_triple_store
from repro.text import Vocab, tokenize

TINY_WORLD = WorldConfig(
    n_persons=16,
    n_clubs=6,
    n_bands=6,
    n_cities=8,
    n_countries=3,
    n_companies=4,
    n_films=4,
    n_universities=3,
    n_awards=3,
    seed=5,
)


@pytest.fixture(scope="session")
def world():
    return World(TINY_WORLD)


@pytest.fixture(scope="session")
def corpus(world):
    return build_corpus(world)


@pytest.fixture(scope="session")
def hotpot(world, corpus):
    return build_hotpot_dataset(world, corpus, comparison_per_kind=4)


@pytest.fixture(scope="session")
def store(corpus):
    return build_triple_store(corpus)


@pytest.fixture(scope="session")
def vocab(corpus, hotpot):
    texts = [d.text for d in corpus] + [q.text for q in hotpot.all_questions]
    return Vocab.from_texts(texts, tokenize)


@pytest.fixture(scope="session")
def encoder(vocab, store, corpus):
    enc = MiniBertEncoder(
        vocab, EncoderConfig(dim=24, n_layers=1, n_heads=2, max_len=32)
    )
    enc.fit_idf([store.field_text(d.doc_id) for d in corpus])
    return enc


@pytest.fixture(scope="session")
def retriever(encoder, store):
    retr = SingleRetriever(encoder, store)
    retr.refresh_embeddings()
    return retr


@pytest.fixture()
def parsed(monkeypatch):
    """Doc ids handed to the triple file's segment parser, in call order."""
    seen = []
    real = store_mod._parse_segment

    def spy(doc_id, record):
        seen.append(doc_id)
        return real(doc_id, record)

    monkeypatch.setattr(store_mod, "_parse_segment", spy)
    return seen


@pytest.fixture()
def rng():
    return np.random.RandomState(0)
