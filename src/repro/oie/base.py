"""Shared clause parsing for the two OIE tools.

A lexicon-driven shallow parse: find the verb group, split the subject off,
and segment the remainder at prepositions. Both tools consume the same
:class:`ParsedClause`; they differ in how they turn it into triples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

# Verbs occurring in encyclopedic prose (base + inflected forms). A lexicon
# stands in for a POS tagger; it is the closed world our documents live in,
# plus common general verbs so the extractors also work on free text.
VERB_LEXICON = frozenset(
    """
    is are was were be been being has have had
    plays played play playing spent spend turned turn turns
    won win wins receives received receive joined join joins
    performed perform performs studied study studies graduated graduate
    competes compete competed consists consist consisted comes come came
    originated originate lies lie lay dates date operates operate operated
    records record recorded premiered premiere honours honors honoured
    covered cover covers written write wrote known know knew formed form
    founded found establish established started start starts began begin
    begins located locate signed sign signs headquartered released release
    directed direct directs incorporated incorporate unveiled unveil
    observed observe survive survives survived differ differs differed
    worked work works made make makes lived live lives moved move moved
    tallied tally nicknamed elected retire retired inducted induct
    based educated given comes
    """.split()
)

AUXILIARIES = frozenset("is are was were be been being has have had did does do".split())

PREPOSITIONS = frozenset(
    "at in for with from of to by as on into over under during".split()
)

DETERMINERS = frozenset("a an the this that these those its his her their".split())

ADVERBS = frozenset(
    "also still very already later often always sometimes currently formerly".split()
)

# words may contain internal periods only when followed by a letter (F.C.),
# so a sentence-final period stays a separate punctuation token
_WORD_RE = re.compile(
    r"[A-Za-z](?:[\w'-]|\.(?=[A-Za-z]))*"
    r"|\d+(?:,\d{3})*(?:\.\d+)?"
    r"|[^\sA-Za-z0-9]"
)


def case_tokenize(sentence: str) -> List[str]:
    """Tokenize preserving case (the extractors need capitalization cues)."""
    return _WORD_RE.findall(sentence)


@dataclass
class PrepSegment:
    """One post-verb segment: an optional preposition and its phrase."""

    preposition: Optional[str]
    tokens: List[str]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class ParsedClause:
    """Shallow parse of one clause."""

    subject: List[str]
    verb_group: List[str]
    segments: List[PrepSegment] = field(default_factory=list)

    @property
    def subject_text(self) -> str:
        return " ".join(self.subject)

    @property
    def verb_text(self) -> str:
        return " ".join(self.verb_group)

    @property
    def is_copula(self) -> bool:
        return bool(self.verb_group) and self.verb_group[-1].lower() in (
            "is",
            "are",
            "was",
            "were",
        )

    @property
    def remainder_text(self) -> str:
        parts = []
        for segment in self.segments:
            if segment.preposition:
                parts.append(segment.preposition)
            parts.extend(segment.tokens)
        return " ".join(parts)


def _is_verb(token: str) -> bool:
    return token.lower() in VERB_LEXICON


def parse_clause(sentence: str) -> Optional[ParsedClause]:
    """Shallow-parse ``sentence`` into subject / verb group / segments.

    Returns ``None`` when no verb is found (e.g. a fragment).
    """
    tokens = [t for t in case_tokenize(sentence) if t not in (".", "!", "?", ";")]
    if not tokens:
        return None
    # locate the first verb; the subject may itself contain an "of"-phrase
    verb_start = None
    for i, token in enumerate(tokens):
        if _is_verb(token) and i > 0:
            verb_start = i
            break
    if verb_start is None:
        return None
    subject = tokens[:verb_start]
    # consume the verb group: auxiliaries + main verb (e.g. "was founded")
    verb_end = verb_start + 1
    while verb_end < len(tokens) and _is_verb(tokens[verb_end]):
        verb_end += 1
    verb_group = tokens[verb_start:verb_end]
    rest = tokens[verb_end:]
    segments: List[PrepSegment] = []
    current = PrepSegment(preposition=None, tokens=[])
    for token in rest:
        lowered = token.lower()
        if lowered in PREPOSITIONS:
            if current.tokens or current.preposition:
                segments.append(current)
            current = PrepSegment(preposition=lowered, tokens=[])
        elif token == ",":
            current.tokens.append(",")
        else:
            current.tokens.append(token)
    if current.tokens or current.preposition:
        segments.append(current)
    # drop empty leading segment produced by intransitive clause
    segments = [s for s in segments if s.tokens or s.preposition]
    if not subject:
        return None
    return ParsedClause(subject=subject, verb_group=verb_group, segments=segments)


def split_conjuncts(tokens: List[str]) -> List[List[str]]:
    """Split a coordinated phrase at commas / "and" into conjunct phrases.

    >>> split_conjuncts("a b , c and d".split())
    [['a', 'b'], ['c'], ['d']]
    """
    conjuncts: List[List[str]] = []
    current: List[str] = []
    for token in tokens:
        if token == "," or token.lower() == "and":
            if current:
                conjuncts.append(current)
            current = []
        else:
            current.append(token)
    if current:
        conjuncts.append(current)
    return conjuncts


def strip_determiners(tokens: List[str]) -> List[str]:
    """Remove leading determiners and all adverbs (MinIE minimization)."""
    out = [t for t in tokens if t.lower() not in ADVERBS]
    while out and out[0].lower() in DETERMINERS:
        out = out[1:]
    return out or tokens

