"""Rule-based coreference resolution.

The paper runs neuralcoref over each Wikipedia document before OIE so that
triples extracted from later sentences carry the document's title entity as
their subject ("He played ..." -> "Walter Otto Davis played ...").

Encyclopedic intro paragraphs are the easy case for coreference: the first
sentence introduces the title entity, later sentences refer to it with
pronouns ("he", "she", "it", "the band", "the club") or a possessive
("his", "her", "its"). This resolver implements exactly that pattern:

* track the most recent *salient* entity (default: the document title),
* replace subject-position pronouns with the salient entity,
* replace possessive pronouns with "<entity> 's",
* replace definite nominals ("the band", "the club") with the entity when
  the entity's type matches.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.text.sentences import split_sentences

_SUBJECT_PRONOUNS = {"he", "she", "it", "they"}
_POSSESSIVE_PRONOUNS = {"his", "her", "its", "their"}
_OBJECT_PRONOUNS = {"him", "them"}

# Definite nominal heads that commonly re-mention a title entity, keyed by
# the entity kind they are compatible with.
_NOMINAL_HEADS = {
    "band": "band",
    "group": "band",
    "club": "club",
    "team": "club",
    "city": "city",
    "town": "city",
    "company": "company",
    "firm": "company",
    "album": "album",
    "film": "film",
    "movie": "film",
    "song": "song",
    "player": "person",
    "author": "person",
    "singer": "person",
}


def _pronoun_pattern() -> re.Pattern:
    words = sorted(
        _SUBJECT_PRONOUNS | _POSSESSIVE_PRONOUNS | _OBJECT_PRONOUNS,
        key=len,
        reverse=True,
    )
    return re.compile(r"\b(" + "|".join(words) + r")\b", re.IGNORECASE)


_PRONOUN_RE = _pronoun_pattern()
_NOMINAL_RE = re.compile(
    r"\bthe (" + "|".join(sorted(_NOMINAL_HEADS, key=len, reverse=True)) + r")\b",
    re.IGNORECASE,
)


def resolve_coreferences(
    text: str,
    title: Optional[str] = None,
    entity_kind: Optional[str] = None,
) -> List[str]:
    """Resolve pronouns / definite nominals in ``text`` to ``title``.

    Parameters
    ----------
    text:
        The document body.
    title:
        The document's title entity. If ``None``, the subject of the first
        sentence (tokens before the first verb-ish word) is used.
    entity_kind:
        Optional kind tag (``"person"``, ``"band"``, ...) enabling definite
        nominal resolution ("the band" -> title for kind ``"band"``).

    Returns the sentences of :func:`split_sentences` with mentions
    replaced (``[]`` exactly when it finds none).
    """
    sentences = split_sentences(text)
    if not sentences:
        return []
    antecedent = title or _guess_title(sentences[0])
    # never rewrite the introducing sentence
    return sentences[:1] + [
        _resolve_sentence(sentence, antecedent, entity_kind)
        for sentence in sentences[1:]
    ]


def _guess_title(first_sentence: str) -> str:
    """Heuristic title = leading capitalized span of the first sentence."""
    match = re.match(r"^((?:[A-Z][\w.'-]*\s*)+)", first_sentence)
    if match:
        return match.group(1).strip()
    return first_sentence.split()[0] if first_sentence.split() else ""


def _resolve_sentence(
    sentence: str, antecedent: str, entity_kind: Optional[str]
) -> str:
    if not antecedent:
        return sentence

    def replace_pronoun(match: re.Match) -> str:
        word = match.group(1)
        lowered = word.lower()
        # only rewrite sentence-initial subject pronouns and possessives:
        # mid-sentence "it"/"they" are too ambiguous for a rule system.
        at_start = match.start() == 0
        if lowered in _SUBJECT_PRONOUNS and at_start:
            return antecedent
        if lowered in _POSSESSIVE_PRONOUNS:
            return antecedent + " 's"
        return word

    out = _PRONOUN_RE.sub(replace_pronoun, sentence)

    if entity_kind:
        def replace_nominal(match: re.Match) -> str:
            head = match.group(1).lower()
            if _NOMINAL_HEADS.get(head) == entity_kind:
                return antecedent
            return match.group(0)

        out = _NOMINAL_RE.sub(replace_nominal, out)
    return out
