"""Okapi BM25 scoring over one index field.

Uses the Lucene variant of the IDF term (non-negative), matching what the
paper's Elasticsearch 7.13 deployment computes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.index.postings import Field

K1 = 1.2  # term-frequency saturation (the Elasticsearch default)
B = 0.75  # document-length normalisation (the Elasticsearch default)


def idf(field: Field, term: str) -> float:
    """Lucene BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    df = field.doc_freq(term)
    if df == 0:
        return 0.0
    n = field.doc_count
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def scores(field: Field, query_terms: Sequence[str]) -> Dict[int, float]:
    """Score every document containing at least one query term."""
    avg_len = field.average_length or 1.0
    accum: Dict[int, float] = {}
    for term in query_terms:
        term_idf = idf(field, term)
        if term_idf == 0.0:
            continue
        for posting in field.postings(term):
            tf = posting.term_freq
            norm = K1 * (1.0 - B + B * field.doc_length(posting.doc_id) / avg_len)
            gain = term_idf * tf * (K1 + 1.0) / (tf + norm)
            accum[posting.doc_id] = accum.get(posting.doc_id, 0.0) + gain
    return accum


def top_k(
    field: Field, query_terms: Sequence[str], k: int
) -> List[Tuple[int, float]]:
    """Top ``k`` (doc_id, score) pairs, best first; stable by doc id."""
    ranked = sorted(
        scores(field, query_terms).items(), key=lambda kv: (-kv[1], kv[0])
    )
    return ranked[:k]
