"""Joint end-to-end training of retriever and updater (paper Sec. VI).

"Future work involves end-to-end training of our single retriever and
updater for improving upon our current two-models training."

This trainer realizes that plan: one optimization loop alternates between
the two losses over the *shared* encoder —

* the retriever's listwise max-matching loss (1 positive vs 9 negatives),
* a hop-2 consistency loss: with the gold clue triple appended, the
  next-hop gold document must outscore the negatives sampled for the
  original question.

The second term trains exactly the capability the two-stage recipe leaves
implicit: the encoder must place ``v(q) + v(clue)`` near the hop-2
document's triples. The updater's scalar head is refreshed after the
encoder converges (its features depend on the encoder's geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus
from repro.data.hotpot import HotpotQuestion
from repro.nn.losses import cosine_similarity
from repro.nn.optim import CLIP_NORM, Adam
from repro.nn.tensor import Tensor
from repro.retriever.negatives import TrainingExample, mine_training_examples
from repro.retriever.single import SingleRetriever
from repro.retriever.trainer import RetrieverTrainer, TrainerConfig
from repro.updater.golden import ground_clue_index
from repro.updater.updater import QuestionUpdater, UpdaterTrainer


@dataclass
class JointConfig:
    """Joint-training knobs."""

    epochs: int = 2
    lr: float = 3e-4
    logit_scale: float = 4.0
    hop2_weight: float = 0.5  # weight of the hop-2 consistency loss
    max_triples_per_doc: int = 6
    seed: int = 47


@dataclass
class JointExample:
    """One joint instance: retriever example + hop-2 supervision."""

    base: TrainingExample
    clue_text: Optional[str] = None  # novel tokens of the gold clue
    hop2_doc_id: Optional[int] = None  # gold next-hop document


class JointTrainer:
    """Alternating end-to-end training over the shared encoder."""

    def __init__(
        self,
        retriever: SingleRetriever,
        updater: QuestionUpdater,
        config: Optional[JointConfig] = None,
    ):
        self.retriever = retriever
        self.updater = updater
        self.config = config or JointConfig()
        self._rng = np.random.RandomState(self.config.seed)
        self._inner = RetrieverTrainer(
            retriever,
            TrainerConfig(
                epochs=1,
                lr=self.config.lr,
                logit_scale=self.config.logit_scale,
                max_triples_per_doc=self.config.max_triples_per_doc,
                refresh_after=False,
            ),
        )

    # -- data -----------------------------------------------------------
    def build_examples(
        self,
        questions: Sequence[HotpotQuestion],
        corpus: Corpus,
    ) -> List[JointExample]:
        """Retriever examples enriched with gold-clue hop-2 supervision."""
        store = self.retriever.store
        base_examples = mine_training_examples(questions, corpus, store)
        by_qid: Dict[int, HotpotQuestion] = {q.qid: q for q in questions}
        joint: List[JointExample] = []
        for example in base_examples:
            question = by_qid.get(example.qid)
            entry = JointExample(base=example)
            if question is not None and question.is_bridge:
                hop1 = corpus.by_title(question.gold_titles[0])
                hop2 = corpus.by_title(question.gold_titles[1])
                if hop1 is not None and hop2 is not None:
                    triples = store.triples(hop1.doc_id)
                    gold = ground_clue_index(triples, hop2)
                    if gold is not None:
                        clue = triples[gold]
                        question_tokens = set(
                            t.lower()
                            for t in question.text.replace("?", " ").split()
                        )
                        novel = [
                            token
                            for token in clue.flatten().split()
                            if token.lower() not in question_tokens
                        ]
                        capitalized = [t for t in novel if t[:1].isupper()]
                        entry.clue_text = (
                            " ".join(capitalized or novel) or clue.flatten()
                        )
                        entry.hop2_doc_id = hop2.doc_id
            joint.append(entry)
        return joint

    # -- losses ------------------------------------------------------------
    def _hop2_loss(self, example: JointExample) -> Optional[Tensor]:
        """Listwise loss: gold hop-2 doc above the question's negatives,
        under the combined (question + clue) query embedding."""
        if example.clue_text is None or example.hop2_doc_id is None:
            return None
        base = example.base
        doc_ids = [example.hop2_doc_id] + [
            d for d in base.negative_doc_ids if d != example.hop2_doc_id
        ]
        query = f"{base.question} {example.clue_text}"
        texts: List[str] = [query]
        spans: List[Optional[Tuple[int, int]]] = []
        for doc_id in doc_ids:
            flattened = self._inner._select_triples(query, doc_id)
            if not flattened:
                spans.append(None)
                continue
            spans.append((len(texts), len(texts) + len(flattened)))
            texts.extend(flattened)
        if spans[0] is None:
            return None
        embeddings = self.retriever.encoder.encode(texts)
        query_vec = embeddings[0]
        scores: List[Tensor] = []
        for span in spans:
            if span is None:
                continue
            start, stop = span
            scores.append(
                cosine_similarity(query_vec, embeddings[start:stop]).max(axis=-1)
            )
        if len(scores) < 2:
            return None
        logits = Tensor.stack(scores) * self.config.logit_scale
        return -logits.softmax(axis=-1).log()[0]

    # -- training ---------------------------------------------------------
    def train(
        self, examples: Sequence[JointExample], verbose: bool = False
    ) -> List[float]:
        """Run joint training; returns per-epoch mean combined losses."""
        cfg = self.config
        model = self.retriever.encoder.model
        model.train()
        optimizer = Adam(
            self.retriever.encoder.trainable_parameters(), lr=cfg.lr
        )
        losses: List[float] = []
        examples = list(examples)
        for epoch in range(cfg.epochs):
            order = self._rng.permutation(len(examples))
            epoch_losses = []
            for i in order:
                example = examples[i]
                loss = self._inner._example_loss(example.base)
                hop2_loss = self._hop2_loss(example)
                if loss is None and hop2_loss is None:
                    continue
                if loss is None:
                    total = hop2_loss * cfg.hop2_weight
                elif hop2_loss is None:
                    total = loss
                else:
                    total = loss + hop2_loss * cfg.hop2_weight
                model.zero_grad()
                total.backward()
                optimizer.clip_grad_norm(CLIP_NORM)
                optimizer.step()
                epoch_losses.append(total.item())
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            losses.append(mean_loss)
            if verbose:  # pragma: no cover - console output
                print(f"[joint] epoch {epoch + 1}/{cfg.epochs} "
                      f"loss={mean_loss:.4f}")
        model.eval()
        self.retriever.refresh_embeddings()
        return losses

    def refresh_updater(
        self,
        questions: Sequence[HotpotQuestion],
        corpus: Corpus,
    ) -> List[float]:
        """Re-fit the updater head on the jointly-trained encoder."""
        trainer = UpdaterTrainer(self.updater, self.updater.config)
        updater_examples = trainer.build_examples(
            questions, corpus, self.retriever.store
        )
        return trainer.train(updater_examples)
