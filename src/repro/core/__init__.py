"""The paper's primary contribution, re-exported as a stable public API.

Everything a downstream user needs to run Triple-Fact Retrieval:

* triple-set construction (Algorithm 1),
* the explainable single retriever with its score strategies,
* the triple-fact question updater,
* the full multi-hop retriever-updater pipeline with path ranking.
"""

from repro.oie.triple import Triple
from repro.oie.union import Extraction, extract_document
from repro.triples.construct import ConstructionConfig, TripleSetConstructor
from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.strategies import MEAN, ONE_FACT, TOP_K, ScoreStrategy
from repro.retriever.single import RetrievedDocument, SingleRetriever
from repro.retriever.trainer import RetrieverTrainer, TrainerConfig
from repro.updater.updater import QuestionUpdater, UpdaterConfig, UpdaterTrainer
from repro.pipeline.multihop import DocumentPath, MultiHopConfig, MultiHopRetriever
from repro.pipeline.path_ranker import PathRanker, PathRankerConfig, PathRankerTrainer
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval

__all__ = [
    "Triple",
    "Extraction",
    "extract_document",
    "ConstructionConfig",
    "TripleSetConstructor",
    "TripleStore",
    "build_triple_store",
    "ONE_FACT",
    "TOP_K",
    "MEAN",
    "ScoreStrategy",
    "RetrievedDocument",
    "SingleRetriever",
    "RetrieverTrainer",
    "TrainerConfig",
    "QuestionUpdater",
    "UpdaterConfig",
    "UpdaterTrainer",
    "DocumentPath",
    "MultiHopConfig",
    "MultiHopRetriever",
    "PathRanker",
    "PathRankerConfig",
    "PathRankerTrainer",
    "FrameworkConfig",
    "TripleFactRetrieval",
]
