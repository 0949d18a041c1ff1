"""Mother-child redundancy removal (paper Algorithm 1, line 8).

A pair ``(t_child, t_mother)`` is *mother-child* when the child's
information is covered by the mother: ``s(t_child) ⊂ s(t_mother)``
(Fig. 3: ``<S, is, an American>`` is a child of
``<S, is, American conscientious objector>``). The goal is a subset with no
mother-child pair that still covers every triple — a set-cover instance the
paper solves greedily: repeatedly take the triple covering the most
not-yet-covered triples.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.oie.triple import Triple
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize


def _info_tokens(triple: Triple) -> frozenset:
    """The information content of a triple as a stemmed content-token set."""
    return frozenset(
        stem(t)
        for t in tokenize(triple.flatten())
        if t[:1].isalnum() and t not in STOPWORDS
    )


def find_mother_child_pairs(
    triples: Sequence[Triple],
) -> List[Tuple[int, int]]:
    """All (child_index, mother_index) pairs within ``triples``. O(n^2).

    A mother covers a child when s(child) ⊂ s(mother) strictly (the
    longer flattening wins a tie) and both share a subject: coverage is
    about the same fact, not accidental token containment across entities.
    """
    info = [_info_tokens(t) for t in triples]
    subjects = [t.subject.lower() for t in triples]
    lengths = [len(t.flatten()) for t in triples]
    pairs: List[Tuple[int, int]] = []
    n = len(triples)
    for i in range(n):
        for j in range(n):
            if i == j or subjects[i] != subjects[j]:
                continue
            if info[i] < info[j] or (info[i] == info[j] and lengths[i] < lengths[j]):
                pairs.append((i, j))
    return pairs


def greedy_cover(triples: Sequence[Triple]) -> List[Triple]:
    """Greedy set cover: pick triples by descending coverage.

    Each triple covers itself plus all its children. Triples are selected
    greedily by how many uncovered triples they cover, until everything is
    covered; the selected set contains no mother-child pair (a child never
    covers anything its mother does not). Preserves input order among the
    survivors.
    """
    n = len(triples)
    if n <= 1:
        return list(triples)
    coverage: Dict[int, Set[int]] = {i: {i} for i in range(n)}
    for child, mother in find_mother_child_pairs(triples):
        coverage[mother].add(child)
    uncovered: Set[int] = set(range(n))
    chosen: List[int] = []
    while uncovered:
        # largest new coverage; ties broken by input order for determinism
        best = max(
            range(n),
            key=lambda i: (len(coverage[i] & uncovered), -i),
        )
        gain = coverage[best] & uncovered
        if not gain:  # pragma: no cover - cannot happen while uncovered
            break
        chosen.append(best)
        uncovered -= gain
    chosen_set = set(chosen)
    # drop any chosen triple that is a child of another chosen triple
    for child, mother in find_mother_child_pairs(triples):
        if child in chosen_set and mother in chosen_set:
            chosen_set.discard(child)
    return [triples[i] for i in sorted(chosen_set)]
