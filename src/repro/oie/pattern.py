"""StanfordIE-style pattern extraction.

Reproduces the qualitative profile of Angeli et al.'s extractor as the
paper characterizes it (Sec. IV-C and Fig. 3): it over-generates —

* a maximal triple spanning the whole remainder,
* one triple per conjunct of coordinated objects (keeping determiners),
* cascading *noise* triples between adjacent conjuncts (the paper's
  Fig. 3 items 6-9: ``[civil rights activist, is, historian]``),
* weaker behaviour on long sentences: when the remainder has many
  prepositional segments, attachment is not split out, so the object is a
  long low-precision span.
"""

from __future__ import annotations

from typing import List

from repro.oie.base import parse_clause, split_conjuncts
from repro.oie.triple import Triple

#: provenance tag of every pattern triple (a byte of the triple file)
SOURCE = "pattern"


def pattern_triples(sentence: str, index: int) -> List[Triple]:
    """Over-generating pattern OIE (StanfordIE stand-in) of one sentence,
    the ``index``-th of its document."""
    clause = parse_clause(sentence)
    if clause is None or not clause.segments:
        return []
    subject = clause.subject_text
    verb = clause.verb_text

    def triple(subject: str, obj: str, confidence: float) -> Triple:
        return Triple(
            subject=subject,
            predicate=verb,
            object=obj,
            source=SOURCE,
            sentence_index=index,
            confidence=confidence,
        )

    triples = [triple(subject, clause.remainder_text, 1.0)]
    # conjunct splitting on the first (direct-object) segment of copulas
    first = clause.segments[0]
    if clause.is_copula and first.preposition is None:
        conjuncts = split_conjuncts(first.tokens)
        if len(conjuncts) > 1:
            for conjunct in conjuncts:
                triples.append(triple(subject, " ".join(conjunct), 0.8))
            # Fig. 3 items 6-9: adjacent conjuncts chained as if one were
            # the subject of the next.
            for left, right in zip(conjuncts, conjuncts[1:]):
                triples.append(triple(" ".join(left), " ".join(right), 0.3))
    return triples
