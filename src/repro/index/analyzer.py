"""Analysis pipeline: raw text -> index terms.

Mirrors a standard Lucene/Elasticsearch analyzer chain: tokenize,
lower-case, drop stopwords and punctuation, stem.
"""

from __future__ import annotations

from typing import List

from repro.text.stem import stem
from repro.text.stopwords import remove_stopwords
from repro.text.tokenize import tokenize


def analyze(text: str) -> List[str]:
    """Convert raw ``text`` into a list of index terms."""
    return [stem(t) for t in remove_stopwords(tokenize(text))]
