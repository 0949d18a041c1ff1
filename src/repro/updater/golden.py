"""GoldEn-style heuristic supervision for the updater (paper Sec. IV-E).

HotpotQA provides no ground updated questions; GoldEn (Qi et al. 2019)
builds them heuristically from longest-common-subsequence overlap between
the retrieved hop-i document and the hop-(i+1) document. The paper trains
its triple-fact updater "on the dataset generated by GoldEn['s]
query-generator module" — :func:`ground_clue_index` is that module: which
triple of the hop-1 document is the gold updater-clue (the one that best
bridges to the hop-2 document).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.data.corpus import Document
from repro.oie.triple import Triple
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import longest_common_subsequence, tokenize


def _content(text: str) -> List[str]:
    return [
        stem(t) for t in tokenize(text) if t[:1].isalnum() and t not in STOPWORDS
    ]


def ground_clue_index(
    triples: Sequence[Triple],
    next_doc: Document,
) -> Optional[int]:
    """Gold updater-clue: the hop-1 triple that best bridges to hop 2.

    Scored by LCS overlap with the next document's title (the bridge
    entity), falling back to overlap with its text. Returns ``None`` when
    no triple shares anything with the next hop.
    """
    if not triples:
        return None
    title_tokens = _content(next_doc.title)
    text_tokens = _content(next_doc.text)
    best_index, best_score = None, 0.0
    for index, triple in enumerate(triples):
        triple_tokens = _content(triple.flatten())
        title_lcs = len(longest_common_subsequence(triple_tokens, title_tokens))
        text_lcs = len(longest_common_subsequence(triple_tokens, text_tokens))
        score = 10.0 * title_lcs + text_lcs
        if score > best_score:
            best_score = score
            best_index = index
    return best_index
