"""Fine-tuning the single retriever (paper Eq. 5).

Binary cross-entropy over the max-matching score: the positive document's
best triple is pushed toward the question, the 9 negatives' best triples
pushed away. Cosine scores are scaled into logits before the sigmoid —
``log F`` with a raw cosine is undefined for negative scores, so, as in
practice, the probability is ``sigmoid(scale * F)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.losses import binary_cross_entropy_with_logits, cosine_similarity
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor
from repro.retriever.negatives import TrainingExample
from repro.retriever.single import SingleRetriever
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize


@dataclass
class TrainerConfig:
    """Fine-tuning knobs."""

    epochs: int = 2
    lr: float = 3e-4
    logit_scale: float = 4.0
    loss: str = "nce"  # "nce" (listwise softmax) or "bce" (Eq. 5 literal)
    balance_positives: bool = True  # BCE only: pos_weight = #negatives
    max_triples_per_doc: int = 6
    max_negatives: int = 9
    seed: int = 17
    refresh_after: bool = True  # re-embed the store when done


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
        self._rng = np.random.RandomState(self.config.seed)

    def _select_triples(self, question: str, doc_id: int) -> List[str]:
        """Cap a document's triples: keep those most lexically entangled
        with the question (a cheap stand-in for in-batch BM25 pruning)."""
        flattened = self.retriever.store.flattened(doc_id)
        cap = self.config.max_triples_per_doc
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
            example.negative_doc_ids[: self.config.max_negatives]
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
        doc_scores: List[Tensor] = []
        targets: List[float] = []
        for position, span in enumerate(spans):
            if span is None:
                continue
            start, stop = span
            scores = cosine_similarity(query_vec, embeddings[start:stop])
            doc_scores.append(scores.max(axis=-1))
            targets.append(1.0 if position == 0 else 0.0)
        if len(doc_scores) < 2:
            return None
        logits = Tensor.stack(doc_scores) * self.config.logit_scale
        if self.config.loss == "nce":
            # Listwise softmax over the same max-matching scores Eq. 5
            # uses. The paper's literal BCE pushes negatives toward an
            # *absolute* score of 0, which at CPU scale collapses the
            # shared embedding space; ranking the ground document above
            # its 9 negatives conveys the identical supervision without
            # constraining absolute score values.
            log_probs = logits.softmax(axis=-1).log()
            return -log_probs[0]
        pos_weight = (
            float(len(targets) - 1) if self.config.balance_positives else 1.0
        )
        return binary_cross_entropy_with_logits(
            logits, np.asarray(targets), pos_weight=max(pos_weight, 1.0)
        )

    def train(
        self, examples: Sequence[TrainingExample], verbose: bool = False
    ) -> List[float]:
        """Run fine-tuning; returns per-epoch mean losses."""
        cfg = self.config
        model = self.retriever.encoder.model
        model.train()
        examples = list(examples)
        losses = train_epochs(
            Adam(self.retriever.encoder.trainable_parameters(), lr=cfg.lr),
            len(examples),
            lambda batch: self._example_loss(examples[batch[0]]),
            epochs=cfg.epochs,
            rng=self._rng,
            name="retriever",
            verbose=verbose,
        )
        model.eval()
        if cfg.refresh_after:
            self.retriever.refresh_embeddings()
        return losses
