"""The full retriever-updater framework (paper Sec. II and IV-E).

* :mod:`repro.pipeline.multihop` — iterative single-retriever + updater
  document-path retrieval ("Triple-fact Retrieval-base", Eq. 8 path
  scores),
* :mod:`repro.pipeline.path_ranker` — the document-path ranking model that
  rescores complete candidate paths ("Triple-fact Retrieval"),
* :mod:`repro.pipeline.framework` — one-call construction of the whole
  trained system.
"""

from repro.pipeline.multihop import DocumentPath, MultiHopRetriever, MultiHopConfig
from repro.pipeline.path_ranker import PathRanker, PathRankerConfig, PathRankerTrainer
from repro.pipeline.framework import TripleFactRetrieval, FrameworkConfig

__all__ = [
    "DocumentPath",
    "MultiHopRetriever",
    "MultiHopConfig",
    "PathRanker",
    "PathRankerConfig",
    "PathRankerTrainer",
    "TripleFactRetrieval",
    "FrameworkConfig",
]
