"""Canopy partitioning (paper Algorithm 1, line 4).

Instead of clustering all m triples directly, partition them into small
canopies first: triples sharing the same "subject-predicate" structure
(facts about one aspect) fall in one canopy, and remaining triples sharing
a "subject" (facts about one entity) group together. Inner clustering then
runs per canopy — this is what brings the complexity to O(m^2) in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.oie.triple import Triple
from repro.text.stem import stem
from repro.text.tokenize import tokenize

#: smallest (subject, predicate) group that forms its own canopy
MIN_SP_SIZE = 2


@dataclass
class Canopy:
    """One canopy: a key (its shared structure) and its member triples."""

    key: Tuple[str, ...]
    level: str  # "subject-predicate" or "subject"
    triples: List[Triple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.triples)


def _subject_key(triple: Triple) -> Tuple[str, ...]:
    return tuple(stem(t) for t in tokenize(triple.subject) if t[:1].isalnum())


def _predicate_key(triple: Triple) -> Tuple[str, ...]:
    return tuple(stem(t) for t in tokenize(triple.predicate) if t[:1].isalnum())


def build_canopies(triples: Sequence[Triple]) -> List[Canopy]:
    """Partition triples into canopies.

    Triples are first grouped by (subject, predicate); groups of at least
    :data:`MIN_SP_SIZE` become "subject-predicate" canopies (these hold the
    sibling candidates). Leftover triples are grouped by subject alone.
    Singleton subjects still form (singleton) canopies so the union of all
    canopies is exactly the input set.
    """
    sp_groups: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], List[Triple]] = {}
    for triple in triples:
        key = (_subject_key(triple), _predicate_key(triple))
        sp_groups.setdefault(key, []).append(triple)

    canopies: List[Canopy] = []
    leftovers: List[Triple] = []
    for (subject_key, predicate_key), members in sp_groups.items():
        if len(members) >= MIN_SP_SIZE:
            canopies.append(
                Canopy(
                    key=subject_key + ("|",) + predicate_key,
                    level="subject-predicate",
                    triples=members,
                )
            )
        else:
            leftovers.extend(members)

    subject_groups: Dict[Tuple[str, ...], List[Triple]] = {}
    for triple in leftovers:
        subject_groups.setdefault(_subject_key(triple), []).append(triple)
    for subject_key, members in subject_groups.items():
        canopies.append(Canopy(key=subject_key, level="subject", triples=members))
    return canopies
