"""Build one encyclopedic document per world entity.

Each document opens with an introductory sentence naming the title entity,
then verbalizes the entity's facts using randomly chosen paraphrase
templates (with pronoun subjects, exercising the coreference resolver),
interleaved with distractor sentences. Entity mentions become hyperlinks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data import templates as T
from repro.data.corpus import Corpus, Document
from repro.data.world import Entity, Fact, World

#: distractor sentences interleaved into every document
N_DISTRACTORS = 4


def _intro_sentence(entity: Entity, world: World, rng: np.random.RandomState) -> str:
    variants = T.INTRO_TEMPLATES[entity.kind]
    template = variants[int(rng.randint(len(variants)))]
    extra = ""
    if entity.kind == "person":
        occupation = world.fact_of(entity, "occupation")
        birth_year = world.fact_of(entity, "birth_year")
        born_in = world.fact_of(entity, "born_in")
        noun = occupation.value_text if occupation else "public figure"
        parts = [noun]
        if born_in is not None:
            parts.append(f"from {born_in.value_text}")
        if birth_year is not None:
            parts.append(f"born in {birth_year.value_text}")
        extra = " ".join(parts)
    return template.format(name=entity.name, extra=extra)


def _fact_sentence(fact: Fact, rng: np.random.RandomState, pronoun: str) -> str:
    variants = T.SENTENCE_TEMPLATES[fact.relation]
    template = variants[int(rng.randint(len(variants)))]
    return template.format(pron=pronoun, s=fact.subject.name, o=fact.value_text)


def build_document(
    entity: Entity,
    world: World,
    doc_id: int,
    rng: np.random.RandomState,
) -> Document:
    """Render ``entity`` into a :class:`Document`."""
    pronouns = T.KIND_PRONOUNS[entity.kind]
    pronoun = pronouns[int(rng.randint(len(pronouns)))]
    sentences: List[str] = [_intro_sentence(entity, world, rng)]
    facts: List[Fact] = []
    links: List[str] = []
    for fact in world.facts_of(entity):
        # the intro already covers occupation/birth_year for persons
        if entity.kind == "person" and fact.relation in ("occupation", "birth_year"):
            facts.append(fact)
            continue
        sentences.append(_fact_sentence(fact, rng, pronoun))
        facts.append(fact)
        value_entity = fact.value_entity
        if value_entity is not None:
            links.append(value_entity.name)
    cities = world.entities_of_kind("city")
    for _ in range(N_DISTRACTORS):
        template = T.DISTRACTOR_TEMPLATES[
            int(rng.randint(len(T.DISTRACTOR_TEMPLATES)))
        ]
        city = cities[int(rng.randint(len(cities)))] if cities else None
        sentences.append(
            template.format(
                year=str(int(rng.randint(1850, 1995))),
                city=city.name if city is not None else "the region",
            )
        )
    return Document(
        doc_id=doc_id,
        title=entity.name,
        text=" ".join(sentences),
        entity=entity,
        links=links,
        facts=facts,
    )


def build_corpus(world: World) -> Corpus:
    """Build the full corpus: one document per world entity.

    The world's own seed drives the rendering, so a world maps to exactly
    one corpus.
    """
    rng = np.random.RandomState(world.config.seed)
    documents = [
        build_document(entity, world, doc_id, rng)
        for doc_id, entity in enumerate(world.entities)
    ]
    return Corpus(documents)
