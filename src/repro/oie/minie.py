"""MinIE-style minimizing extraction.

Reproduces the qualitative profile of Gashteovski et al.'s MinIE as the
paper characterizes it: constituents are *minimized* (determiners and
adverbs dropped), prepositional attachments are split into separate
compact triples ("better extraction ability for the long sentence"), and
coordinated objects become separate minimized triples with no noise
cascade.
"""

from __future__ import annotations

from typing import List

from repro.oie.base import parse_clause, split_conjuncts, strip_determiners
from repro.oie.triple import Triple

#: provenance tag of every MinIE triple (a byte of the triple file)
SOURCE = "minie"


def minie_triples(sentence: str, index: int) -> List[Triple]:
    """Minimizing OIE (MinIE stand-in) of one sentence, the ``index``-th
    of its document."""
    clause = parse_clause(sentence)
    if clause is None:
        return []
    subject = clause.subject_text
    verb = clause.verb_text
    triples: List[Triple] = []
    for segment in clause.segments:
        predicate = verb if segment.preposition is None else (
            f"{verb} {segment.preposition}"
        )
        for conjunct in split_conjuncts(segment.tokens):
            triples.append(
                Triple(
                    subject=subject,
                    predicate=predicate,
                    object=" ".join(strip_determiners(conjunct)),
                    source=SOURCE,
                    sentence_index=index,
                    confidence=0.9,
                )
            )
    return triples
