"""A Porter-style suffix stemmer.

A compact implementation of the first steps of the Porter algorithm — the
ones that matter for retrieval recall (plurals, -ing, -ed, -ly, common
nominalizations). Deterministic and dependency-free; used by the TF-IDF /
BM25 index and by the relatedness scorer.

:func:`stem` is computed once per distinct word: Algorithm 1 alone stems
the same few strings some 200 times per document, so the pure function
carries a bounded ``lru_cache`` (``stem.__wrapped__`` is the plain one).
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = set("aeiou")

# Bound of the :func:`stem` memo. Vocabulary-sized: Algorithm 1, the
# index and the updater stem the same few thousand distinct words over and
# over, and all of them fit. A bound at all, so adversarial text cannot
# grow the memo without limit (~170 bytes an entry, ~5 MiB when full).
_STEM_CACHE_SIZE = 1 << 15


def _has_vowel(word: str) -> bool:
    return any(c in _VOWELS or c == "y" for c in word[:-1]) if word else False


def _measure(word: str) -> int:
    """Porter's m: the number of vowel-consonant sequences."""
    m = 0
    prev_vowel = False
    for i, c in enumerate(word):
        is_vowel = c in _VOWELS or (c == "y" and i > 0 and word[i - 1] not in _VOWELS)
        if prev_vowel and not is_vowel:
            m += 1
        prev_vowel = is_vowel
    return m


_STEP2 = [
    ("ational", "ate"),
    ("tional", "tion"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("ization", "ize"),
    ("biliti", "ble"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("aliti", "al"),
    ("alli", "al"),
    ("izer", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
]

_STEP3 = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
]


@lru_cache(maxsize=_STEM_CACHE_SIZE)
def stem(word: str) -> str:
    """Stem one lower-case word (memoised; pure, so a hit is exact).

    >>> stem("foundations")
    'foundat'
    >>> stem("played")
    'play'
    >>> stem("cities")
    'citi'
    """
    if len(word) <= 2 or not word.isalpha():
        return word

    # Step 1a: plurals
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # Step 1b: -ed / -ing
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        word = _fixup(word)
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        word = _fixup(word)

    # Step 1c: terminal y
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2 / 3: common derivational suffixes
    for suffix, replacement in _STEP2:
        if word.endswith(suffix) and _measure(word[: -len(suffix)]) > 0:
            word = word[: -len(suffix)] + replacement
            break
    for suffix, replacement in _STEP3:
        if word.endswith(suffix) and _measure(word[: -len(suffix)]) > 0:
            word = word[: -len(suffix)] + replacement
            break

    # Step 4: larger suffixes on long stems
    for suffix in ("ement", "ment", "ance", "ence", "able", "ible", "ant",
                   "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize"):
        if word.endswith(suffix) and _measure(word[: -len(suffix)]) > 1:
            if suffix == "ion" and word[-4:-3] not in ("s", "t"):
                continue
            word = word[: -len(suffix)]
            break
    return word


def _fixup(word: str) -> str:
    """Post -ed/-ing cleanup: restore e, undo doubling."""
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if (
        len(word) >= 2
        and word[-1] == word[-2]
        and word[-1] not in ("l", "s", "z")
        and word[-1] not in _VOWELS
    ):
        return word[:-1]
    return word
