"""Word tokenization and normalization.

The tokenizer is deliberately simple and deterministic: it lower-cases,
separates punctuation (a hyphen too: ``"1990-91"`` is ``1990 - 91``),
keeps decimal numbers intact, and is the single tokenization used by
every component (BM25 index, Algorithm 1 and the neural encoder), so that
lexical and semantic retrieval operate over the same token universe.

Because everything sits on it — vocabulary building, row encoding,
Algorithm 1's token keys, the question updater — :func:`tokenize` is one
``findall`` pass; clitic splitting looks only at tokens holding an
apostrophe. ``tests/reference.py::tokenize_reference`` is the
match-by-match form it must equal.
"""

from __future__ import annotations

import re
from typing import List

_TOKEN_RE = re.compile(
    r"""
    \d+(?:\.\d+)?          # numbers, incl. decimals
    | [A-Za-z]+(?:'[a-z]+)?  # words, incl. clitics like "it's"
    | [^\sA-Za-z0-9]       # any single punctuation mark
    """,
    re.VERBOSE,
)

_APOSTROPHE_SUFFIXES = {"'s", "'re", "'ve", "'ll", "'d", "'m"}


def normalize(text: str) -> str:
    """Lower-case and collapse whitespace.

    >>> normalize("  The   Quick  Fox ")
    'the quick fox'
    """
    return " ".join(text.lower().split())


def tokenize(text: str) -> List[str]:
    """Split lower-cased ``text`` into word / number / punctuation tokens.

    One regex pass; only a token that holds an apostrophe can carry a
    clitic, so a text without one is returned as matched.

    >>> tokenize("Millwall F.C. was founded in 1885.")
    ['millwall', 'f', '.', 'c', '.', 'was', 'founded', 'in', '1885', '.']
    """
    text = text.lower()
    matched = _TOKEN_RE.findall(text)
    if "'" not in text:
        return matched
    tokens: List[str] = []
    for token in matched:
        # split clitics off: "club's" -> "club", "'s"
        cut = token.find("'")
        if cut > 0 and token[cut:] in _APOSTROPHE_SUFFIXES:
            tokens.append(token[:cut])
            tokens.append(token[cut:])
        else:
            tokens.append(token)
    return tokens


def longest_common_subsequence(a: List[str], b: List[str]) -> List[str]:
    """Token-level LCS, the primitive behind GoldEn's heuristic oracle.

    Dynamic programming, O(len(a) * len(b)).

    >>> longest_common_subsequence("a b c d".split(), "b x d".split())
    ['b', 'd']
    """
    if not a or not b:
        return []
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        ai = a[i - 1]
        row = table[i]
        prev = table[i - 1]
        for j in range(1, cols):
            if ai == b[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    # backtrack
    out: List[str] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            out.append(a[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return out
