"""Fine-tuning the single retriever (paper Eq. 5).

Eq. 5 supervises the max-matching score: the positive document's best
triple toward the question, the 9 negatives' best triples away. Cosine
scores are scaled into logits, and the loss is a listwise softmax that
ranks the positive above its negatives. The paper's literal BCE pushes
the negatives toward an *absolute* score of 0, which at CPU scale
collapses the shared embedding space (DESIGN §5 item 1 has the
measurement); the ranking conveys the identical supervision without
constraining absolute score values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.losses import cosine_similarity
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor
from repro.retriever.negatives import TrainingExample
from repro.retriever.single import SingleRetriever
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize


LOGIT_SCALE = 4.0  # cosine -> logit multiplier of the listwise loss
MAX_TRIPLES_PER_DOC = 6  # encoded per document: the most question-entangled
MAX_NEGATIVES = 9  # Eq. 5: one positive, nine negatives
SEED = 17  # of the example order


@dataclass
class TrainerConfig:
    """Fine-tuning knobs."""

    epochs: int = 2
    lr: float = 3e-4


def _content_tokens(text: str) -> set:
    return {
        stem(t) for t in tokenize(text) if t[:1].isalnum() and t not in STOPWORDS
    }


class RetrieverTrainer:
    """Trains a :class:`SingleRetriever`'s encoder on mined examples."""

    def __init__(
        self, retriever: SingleRetriever, config: Optional[TrainerConfig] = None
    ):
        self.retriever = retriever
        self.config = config or TrainerConfig()
        self._rng = np.random.RandomState(SEED)

    def _select_triples(self, question: str, doc_id: int) -> List[str]:
        """Cap a document's triples: keep those most lexically entangled
        with the question (a cheap stand-in for in-batch BM25 pruning)."""
        flattened = self.retriever.store.flattened(doc_id)
        cap = MAX_TRIPLES_PER_DOC
        if len(flattened) <= cap:
            return flattened
        question_tokens = _content_tokens(question)
        ranked = sorted(
            enumerate(flattened),
            key=lambda item: (-len(_content_tokens(item[1]) & question_tokens), item[0]),
        )
        kept = sorted(index for index, _ in ranked[:cap])
        return [flattened[i] for i in kept]

    def _example_loss(self, example: TrainingExample) -> Optional[Tensor]:
        encoder = self.retriever.encoder
        doc_ids = [example.positive_doc_id] + list(
            example.negative_doc_ids[:MAX_NEGATIVES]
        )
        texts: List[str] = [example.question]
        spans: List[tuple] = []
        for doc_id in doc_ids:
            flattened = self._select_triples(example.question, doc_id)
            if not flattened:
                spans.append(None)
                continue
            spans.append((len(texts), len(texts) + len(flattened)))
            texts.extend(flattened)
        if spans[0] is None:
            return None  # positive has no triples; nothing to learn from
        embeddings = encoder.encode(texts)
        query_vec = embeddings[0]
        doc_scores = [
            cosine_similarity(query_vec, embeddings[slice(*span)]).max(axis=-1)
            for span in spans
            if span is not None
        ]
        if len(doc_scores) < 2:
            return None
        logits = Tensor.stack(doc_scores) * LOGIT_SCALE
        return -logits.softmax(axis=-1).log()[0]

    def train(
        self, examples: Sequence[TrainingExample], verbose: bool = False
    ) -> List[float]:
        """Run fine-tuning, then re-embed the store; returns per-epoch
        mean losses."""
        cfg = self.config
        examples = list(examples)
        losses = train_epochs(
            Adam(self.retriever.encoder.trainable_parameters(), lr=cfg.lr),
            len(examples),
            lambda index: self._example_loss(examples[index]),
            epochs=cfg.epochs,
            rng=self._rng,
            name="retriever",
            verbose=verbose,
        )
        self.retriever.refresh_embeddings()
        return losses
