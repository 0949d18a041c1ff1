"""Updated-question composition (paper: "we add the knowledge of
updater-clue into the original question to generate a new question q' in a
de-duplication way")."""

from __future__ import annotations

from typing import Set

from repro.oie.triple import Triple
from repro.text.tokenize import tokenize


def compose_updated_question(question: str, clue: Triple) -> str:
    """Append the clue triple's novel tokens to the question.

    Tokens already present in the question (case-insensitive) are skipped,
    so repeated entity mentions do not pile up across hops.

    >>> from repro.oie.triple import Triple
    >>> compose_updated_question(
    ...     "Which club did Davis play for?",
    ...     Triple("Davis", "played for", "Millwall"))
    'Which club did Davis play for? played Millwall'
    """
    seen: Set[str] = set(tokenize(question))
    extra = []
    for token in clue.flatten().split():
        lowered_parts = tokenize(token)
        if not seen.issuperset(lowered_parts):
            extra.append(token)
            seen.update(lowered_parts)
    if not extra:
        return question
    return f"{question} {' '.join(extra)}"
