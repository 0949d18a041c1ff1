"""Baseline retrieval systems the paper compares against (Tables II-V).

* :mod:`repro.baselines.lexical` — BM25 text retrieval [1, 10, 11]; its
  text-field hop 1 is Table IV's GoldEn [13] row,
* :mod:`repro.baselines.dense_base` — shared dense bi-encoder machinery,
* :mod:`repro.baselines.tprr` — TPRR [7]: full-text dense encoding with
  path reranking,
* :mod:`repro.baselines.mdr` — MDR [17]: recursive dense retrieval, hop-2
  query = question ⊕ hop-1 document text,
* :mod:`repro.baselines.path_retriever` — PathRetriever [3]: recurrent
  beam search over the hyperlink graph,
* :mod:`repro.baselines.hop_retriever` — HopRetriever [2]: entity-mention
  enriched dense retrieval.
"""

from repro.baselines.lexical import LexicalRetriever
from repro.baselines.dense_base import DenseRetriever, DenseConfig
from repro.baselines.tprr import TPRRRetriever
from repro.baselines.mdr import MDRRetriever
from repro.baselines.path_retriever import PathRetrieverBaseline, PathRetrieverConfig
from repro.baselines.hop_retriever import HopRetrieverBaseline

__all__ = [
    "LexicalRetriever",
    "DenseRetriever",
    "DenseConfig",
    "TPRRRetriever",
    "MDRRetriever",
    "PathRetrieverBaseline",
    "PathRetrieverConfig",
    "HopRetrieverBaseline",
]
