"""Streamed document generation: 100k+ seeded docs at O(1) memory.

:class:`~repro.data.world.World` materializes every entity and fact up
front — right for the few-hundred-document corpora the test suite uses,
hopeless at the corpus sizes the sharded retrieval layer targets. This
module generates the same *shape* of encyclopedic documents as a pure
function of ``(seed, doc_id)``: every document is derived from its own
:class:`numpy.random.RandomState` seeded by a mix of the stream seed and
the doc id, so

* :func:`document_at` is O(1) random access — document ``i`` of a
  100k-doc stream costs the same as document 0 and never touches the
  other 99,999;
* :func:`stream_documents` is a generator holding one document at a
  time — memory stays flat no matter how far the stream runs;
* two streams with equal configs yield byte-identical documents, the
  determinism the streamed-world tests pin.

Documents are person-centric with links into small shared pools of
cities and clubs (pool entities are themselves pure functions of the
config), so link structure and entity mentions survive the streaming
rewrite and triple extraction finds the same relation shapes the
materialized world produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.corpus import Document
from repro.data.world import (
    _CLUB_SUFFIXES,
    _FIRST_NAMES,
    _OCCUPATIONS,
    _PLACE_ROOTS,
    _PLACE_SUFFIXES,
    _SURNAMES,
    Entity,
    Fact,
)

#: uid offsets keeping pool entities disjoint from person uids (= doc id)
_CITY_UID_BASE = 1_000_000_000
_CLUB_UID_BASE = 2_000_000_000

#: seed mixing primes: doc streams with nearby seeds stay decorrelated
_SEED_MIX_A = 1_000_003
_SEED_MIX_B = 7919

#: the shared city and club pools every stream links into
N_CITIES = 64
N_CLUBS = 48
#: the birth years a person is drawn from, inclusive
YEAR_LOW = 1900
YEAR_HIGH = 1999


@dataclass(frozen=True)
class StreamConfig:
    """Shape of one document stream (a pure value: hashable, comparable)."""

    n_docs: int = 100_000
    seed: int = 13


def _doc_rng(config: StreamConfig, doc_id: int) -> np.random.RandomState:
    """The per-document RandomState — the whole O(1)-access trick."""
    mixed = (config.seed * _SEED_MIX_A + doc_id * _SEED_MIX_B) % (2**32 - 1)
    return np.random.RandomState(mixed)


def city_at(config: StreamConfig, index: int) -> Entity:
    """The ``index``-th shared-pool city (pure function of the config)."""
    index = int(index) % N_CITIES
    rng = _doc_rng(config, _CITY_UID_BASE + index)
    root = _PLACE_ROOTS[rng.randint(len(_PLACE_ROOTS))]
    suffix = _PLACE_SUFFIXES[rng.randint(len(_PLACE_SUFFIXES))]
    name = f"{root}{suffix}".capitalize() + f" ({index})"
    return Entity(uid=_CITY_UID_BASE + index, name=name, kind="city")


def club_at(config: StreamConfig, index: int) -> Entity:
    """The ``index``-th shared-pool club (pure function of the config)."""
    index = int(index) % N_CLUBS
    rng = _doc_rng(config, _CLUB_UID_BASE + index)
    root = _PLACE_ROOTS[rng.randint(len(_PLACE_ROOTS))]
    suffix = _CLUB_SUFFIXES[rng.randint(len(_CLUB_SUFFIXES))]
    name = f"{root.capitalize()} {suffix} ({index})"
    return Entity(uid=_CLUB_UID_BASE + index, name=name, kind="club")


def document_at(config: StreamConfig, doc_id: int) -> Document:
    """Document ``doc_id`` of the stream, derived from (seed, doc_id) only."""
    if not 0 <= doc_id < config.n_docs:
        raise IndexError(
            f"doc_id {doc_id} outside stream of {config.n_docs} documents"
        )
    rng = _doc_rng(config, doc_id)
    first = _FIRST_NAMES[rng.randint(len(_FIRST_NAMES))]
    surname = _SURNAMES[rng.randint(len(_SURNAMES))]
    # the doc id disambiguates Wikipedia-style, so titles stay unique
    # without any cross-document bookkeeping
    name = f"{first} {surname} ({doc_id})"
    person = Entity(uid=doc_id, name=name, kind="person")
    occupation = _OCCUPATIONS[rng.randint(len(_OCCUPATIONS))]
    year = int(rng.randint(YEAR_LOW, YEAR_HIGH + 1))
    city = city_at(config, rng.randint(N_CITIES))
    club = club_at(config, rng.randint(N_CLUBS))
    facts = [
        Fact(subject=person, relation="occupation", value=occupation),
        Fact(subject=person, relation="born_in", value=city),
        Fact(subject=person, relation="birth_year", value=str(year)),
        Fact(subject=person, relation="plays_for", value=club),
    ]
    text = (
        f"{name} is a {occupation}. "
        f"{name} was born in {city.name}. "
        f"{name} was born in {year}. "
        f"{name} plays for {club.name}."
    )
    return Document(
        doc_id=doc_id,
        title=name,
        text=text,
        entity=person,
        links=[city.name, club.name],
        facts=facts,
    )


def stream_documents(config: StreamConfig) -> Iterator[Document]:
    """Lazily yield every document of the stream, in doc-id order.

    A generator: at any moment exactly one document is alive, so memory
    is O(1) in the stream length — the property that lets ingestion and
    the sharded benchmarks walk 100k+ documents without materializing a
    corpus.
    """
    for doc_id in range(config.n_docs):
        yield document_at(config, doc_id)
