"""Open Information Extraction substrate.

Stand-ins for the two sentence-level OIE tools the paper deploys:

* :mod:`repro.oie.pattern` — "StanfordIE-style": pattern extraction that
  over-generates (keeps determiners, emits conjunct cascades — the noisy
  triples of the paper's Fig. 3),
* :mod:`repro.oie.minie` — "MinIE-style": minimized constituents, split
  prepositional attachments, better long-sentence behaviour,
* :mod:`repro.oie.union` — :func:`extract_document`, one coreference
  pass feeding both tools, and the union set ``T_o = T_d^s ∪ T_d^m`` that
  Algorithm 1 consumes.
"""

from repro.oie.triple import Triple
from repro.oie.base import parse_clause
from repro.oie.pattern import pattern_triples
from repro.oie.minie import minie_triples
from repro.oie.union import Extraction, dedupe_triples, extract_document

__all__ = [
    "Triple",
    "parse_clause",
    "pattern_triples",
    "minie_triples",
    "Extraction",
    "dedupe_triples",
    "extract_document",
]
