"""Wikihop-style cross-document queries.

Wikihop poses queries as ``(subject entity, relation, ?)`` with a candidate
answer set and a bag of support documents; answering requires hopping from
the subject's document to the document holding the relation value.

The original dataset has no gold-document supervision; the paper says it
post-processed Wikihop "to satisfy our retriever task setting" — we generate
the supervision directly (``gold_titles``), which is the same end state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.corpus import Corpus
from repro.data.hotpot import CHAIN_PAIRS
from repro.data.world import World


@dataclass
class WikihopQuery:
    """One (subject, relation, ?) query with candidates and supports."""

    qid: int
    subject: str
    relation: str
    text: str  # "<relation> <subject>" surface form, as in Wikihop
    candidates: List[str]
    answer: str
    gold_titles: List[str]
    support_titles: List[str] = field(default_factory=list)


@dataclass
class WikihopDataset:
    """Train/validation splits of Wikihop-style queries."""

    corpus: Corpus
    train: List[WikihopQuery] = field(default_factory=list)
    validation: List[WikihopQuery] = field(default_factory=list)


def build_wikihop_dataset(
    world: World,
    corpus: Corpus,
    n_candidates: int = 6,
    n_extra_supports: int = 4,
    validation_fraction: float = 0.2,
    seed: Optional[int] = None,
    max_queries: Optional[int] = None,
) -> WikihopDataset:
    """Generate Wikihop-style queries from the world's 2-hop chains.

    For every chain ``anchor --r1--> bridge --r2--> value``, emit a query
    ``(anchor, r2, ?)`` whose answer is ``value``, with distractor
    candidates drawn from other values of ``r2`` and support documents that
    include the gold path plus random distractor documents.
    """
    rng = np.random.RandomState(world.config.seed + 202 if seed is None else seed)
    value_pool: Dict[str, List[str]] = {}
    for _, r2 in CHAIN_PAIRS:
        if r2 not in value_pool:
            values = sorted({f.value_text for f in world.facts_with_relation(r2)})
            value_pool[r2] = values

    all_titles = corpus.titles()
    queries: List[WikihopQuery] = []
    qid = 0
    for r1, r2 in CHAIN_PAIRS:
        for hop1_fact in world.facts_with_relation(r1):
            bridge = hop1_fact.value_entity
            if bridge is None:
                continue
            hop2_fact = world.fact_of(bridge, r2)
            if hop2_fact is None:
                continue
            answer = hop2_fact.value_text
            distractors = [v for v in value_pool[r2] if v != answer]
            if len(distractors) > n_candidates - 1:
                picked = rng.choice(
                    len(distractors), size=n_candidates - 1, replace=False
                )
                distractors = [distractors[int(i)] for i in picked]
            candidates = distractors + [answer]
            rng.shuffle(candidates)
            gold_titles = [hop1_fact.subject.name, bridge.name]
            extra = [
                all_titles[int(i)]
                for i in rng.choice(
                    len(all_titles),
                    size=min(n_extra_supports, len(all_titles)),
                    replace=False,
                )
                if all_titles[int(i)] not in gold_titles
            ]
            queries.append(
                WikihopQuery(
                    qid=qid,
                    subject=hop1_fact.subject.name,
                    relation=r2,
                    text=f"{r2.replace('_', ' ')} {hop1_fact.subject.name}",
                    candidates=candidates,
                    answer=answer,
                    gold_titles=gold_titles,
                    support_titles=gold_titles + extra,
                )
            )
            qid += 1

    order = rng.permutation(len(queries))
    queries = [queries[i] for i in order]
    if max_queries is not None:
        queries = queries[:max_queries]
    n_val = int(round(len(queries) * validation_fraction))
    return WikihopDataset(
        corpus=corpus, train=queries[n_val:], validation=queries[:n_val]
    )
