"""The triple-fact single retriever (paper Sec. III-B) and its training.

* :mod:`repro.retriever.store` — per-document constructed triple sets,
* :mod:`repro.retriever.strategies` — "one fact" / top-k / mean score
  calculation strategies (Eqs. 2-4, 6, 7),
* :mod:`repro.retriever.single` — the PLM-based maximum-matching retriever,
* :mod:`repro.retriever.negatives` — BM25-mined training data (1 positive +
  9 negatives per question, Sec. IV-B),
* :mod:`repro.retriever.trainer` — Eq. 5 binary cross-entropy fine-tuning.
"""

from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.strategies import (
    ONE_FACT,
    TOP_K,
    MEAN,
    ScoreStrategy,
    aggregate_segments,
)
from repro.retriever.single import SingleRetriever, RetrievedDocument
from repro.retriever.negatives import TrainingExample, mine_training_examples
from repro.retriever.trainer import RetrieverTrainer, TrainerConfig

__all__ = [
    "TripleStore",
    "build_triple_store",
    "ONE_FACT",
    "TOP_K",
    "MEAN",
    "ScoreStrategy",
    "aggregate_segments",
    "SingleRetriever",
    "RetrievedDocument",
    "TrainingExample",
    "mine_training_examples",
    "RetrieverTrainer",
    "TrainerConfig",
]
