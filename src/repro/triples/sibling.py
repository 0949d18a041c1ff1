"""Sibling detection and fusion (paper Algorithm 1, line 9).

Two triples are *siblings* when they share a high structural + semantic
similarity — in Fig. 3, ``<S, is, American conscientious objector>`` and
``<S, is, Quaker>`` describe one fact (the person's roles) from different
aspects. Sibling pairs are replaced by a single *fusion* triple carrying
all objects, shrinking the set with no information loss.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.oie.triple import Triple
from repro.text.stem import stem
from repro.text.tokenize import tokenize

#: most fusion rounds of one :func:`fuse_siblings` call
MAX_ROUNDS = 10


def _key_tokens(text: str) -> frozenset:
    return frozenset(stem(t) for t in tokenize(text) if t[:1].isalnum())


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def sibling_similarity(a: Triple, b: Triple) -> float:
    """Structure + semantics similarity in [0, 1].

    Weighted combination: subject identity (0.4), predicate similarity
    (0.4), object similarity (0.2). Sharing subject and predicate exactly —
    the canopy structure — already yields 0.8, above the default alpha.
    """
    subject_sim = _jaccard(_key_tokens(a.subject), _key_tokens(b.subject))
    predicate_sim = _jaccard(_key_tokens(a.predicate), _key_tokens(b.predicate))
    object_sim = _jaccard(_key_tokens(a.object), _key_tokens(b.object))
    return 0.4 * subject_sim + 0.4 * predicate_sim + 0.2 * object_sim


def find_sibling_pairs(
    triples: Sequence[Triple], alpha: float = 0.75
) -> List[Tuple[int, int]]:
    """Index pairs (i < j) with similarity >= ``alpha``. O(n^2) traverse."""
    pairs: List[Tuple[int, int]] = []
    n = len(triples)
    for i in range(n):
        for j in range(i + 1, n):
            if sibling_similarity(triples[i], triples[j]) >= alpha:
                pairs.append((i, j))
    return pairs


def fuse_pair(a: Triple, b: Triple) -> Triple:
    """Fuse a sibling pair into one triple with merged objects.

    Objects whose content tokens are covered by another merged object are
    dropped ("in 1885" subsumes "1885"), keeping the fusion minimal.
    """
    objects_a = (a.object,) + a.extra_objects
    objects_b = (b.object,) + b.extra_objects
    candidates: List[str] = []
    seen = set()
    for obj in objects_a + objects_b:
        key = obj.lower()
        if key not in seen:
            seen.add(key)
            candidates.append(obj)
    token_sets = [_key_tokens(obj) for obj in candidates]
    merged: List[str] = []
    for i, obj in enumerate(candidates):
        subsumed = any(
            i != j
            and (
                token_sets[i] < token_sets[j]
                or (token_sets[i] == token_sets[j] and j < i)
            )
            for j in range(len(candidates))
        )
        if not subsumed:
            merged.append(obj)
    return Triple(
        subject=a.subject,
        predicate=a.predicate,
        object=merged[0],
        extra_objects=tuple(merged[1:]),
        source="fusion",
        sentence_index=min(a.sentence_index, b.sentence_index),
        confidence=max(a.confidence, b.confidence),
    )


def fuse_siblings(triples: Sequence[Triple], alpha: float = 0.75) -> List[Triple]:
    """Repeatedly fuse sibling pairs until none remain above ``alpha``.

    Each round fuses disjoint pairs (a triple participates in at most one
    fusion per round), so the procedure terminates in O(log n) rounds with
    O(n^2) work per round.
    """
    current = list(triples)
    for _ in range(MAX_ROUNDS):
        pairs = find_sibling_pairs(current, alpha=alpha)
        if not pairs:
            break
        used = set()
        fused: List[Triple] = []
        consumed = set()
        for i, j in pairs:
            if i in used or j in used:
                continue
            used.update((i, j))
            consumed.update((i, j))
            fused.append(fuse_pair(current[i], current[j]))
        current = [t for k, t in enumerate(current) if k not in consumed] + fused
    return current
