"""Document extraction: ``T_o = T_d^s ∪ T_d^m`` (paper Sec. IV-B).

One pass per document, as the paper describes it: "we first conduct
coreference resolution over the document and then ... extract triple
facts for each sentence". Coreference runs once; both tools read the
same resolved sentences, and their union de-duplicates exact content
matches while keeping the provenance of the first occurrence.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.oie.minie import minie_triples
from repro.oie.pattern import pattern_triples
from repro.oie.triple import Triple
from repro.text.coref import resolve_coreferences


def dedupe_triples(triples: Sequence[Triple]) -> List[Triple]:
    """Drop exact content duplicates, keeping the first occurrence."""
    seen = set()
    out: List[Triple] = []
    for triple in triples:
        key = triple.content_key()
        if key not in seen:
            seen.add(key)
            out.append(triple)
    return out


class Extraction(NamedTuple):
    """Both tools' triples of one document, in sentence order."""

    pattern: List[Triple]  # StanfordIE stand-in, T_d^s
    minie: List[Triple]  # MinIE stand-in, T_d^m

    @property
    def union(self) -> List[Triple]:
        """``T_o``: pattern triples first, then MinIE's new ones."""
        return dedupe_triples(self.pattern + self.minie)


def extract_document(
    text: str, title: Optional[str] = None, entity_kind: Optional[str] = None
) -> Extraction:
    """Resolve coreferences once, then run both tools over every sentence."""
    pattern: List[Triple] = []
    minie: List[Triple] = []
    sentences = resolve_coreferences(text, title=title, entity_kind=entity_kind)
    for index, sentence in enumerate(sentences):
        pattern.extend(pattern_triples(sentence, index))
        minie.extend(minie_triples(sentence, index))
    return Extraction(pattern, minie)
