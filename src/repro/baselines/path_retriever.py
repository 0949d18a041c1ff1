"""PathRetriever baseline (Asai et al. 2020): recurrent graph search.

PathRetriever restricts candidates to the Wikipedia hyperlink graph and
walks it with a recurrent state: seed documents come from lexical
retrieval, each expansion step scores hyperlink neighbours against a
GRU-style hidden state combining the question with the path so far. Its
strength (Table V) is comparison questions — both gold documents are
lexically close to the question; its weakness is paths whose documents
share no hyperlink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.dense_base import DenseConfig, DenseRetriever
from repro.baselines.lexical import LexicalRetriever
from repro.data.corpus import Corpus
from repro.encoder.minibert import MiniBertEncoder
from repro.nn.layers import Linear
from repro.nn.optim import CLIP_NORM, Adam
from repro.nn.tensor import Tensor


@dataclass
class PathRetrieverConfig:
    """Beam-search and training knobs."""

    n_seeds: int = 8
    beam: int = 4
    epochs: int = 2
    lr: float = 1e-3
    seed: int = 37


class PathRetrieverBaseline:
    """Recurrent beam search over the hyperlink graph.

    The recurrent state is ``h' = tanh(W [h ; e(d)])`` starting from the
    encoded question; candidate documents are scored by a bilinear-ish
    head on ``[h ; e(d)]``.
    """

    def __init__(
        self,
        encoder: MiniBertEncoder,
        corpus: Corpus,
        dense: Optional[DenseRetriever] = None,
        config: Optional[PathRetrieverConfig] = None,
    ):
        self.encoder = encoder
        self.corpus = corpus
        self.config = config or PathRetrieverConfig()
        self.dense = dense or DenseRetriever(encoder, corpus)
        self.lexical = LexicalRetriever(corpus)
        rng = np.random.RandomState(self.config.seed)
        dim = encoder.config.dim
        self.recurrent = Linear(2 * dim, dim, rng=rng)
        self.score_head = Linear(2 * dim, 1, rng=rng)

    # -- internals ---------------------------------------------------------
    def _doc_vec(self, doc_id: int) -> np.ndarray:
        self.dense._ensure_fresh()
        return self.dense._doc_normed[doc_id]

    def _state_update(self, state: np.ndarray, doc_vec: np.ndarray) -> np.ndarray:
        joint = np.concatenate([state, doc_vec])
        return np.tanh(joint @ self.recurrent.weight.data + self.recurrent.bias.data)

    def _score(self, state: np.ndarray, doc_vec: np.ndarray) -> float:
        joint = np.concatenate([state, doc_vec])
        return float(joint @ self.score_head.weight.data.reshape(-1)
                     + self.score_head.bias.data[0])

    def _candidates(self, doc_id: int, question: str) -> List[int]:
        """Hyperlink neighbours of ``doc_id`` (the graph constraint)."""
        neighbours = [
            d.doc_id for d in self.corpus.neighbours(self.corpus[doc_id])
        ]
        return neighbours

    # -- retrieval ------------------------------------------------------------
    def retrieve_paths(
        self, question: str, k_paths: int = 8
    ) -> List[Tuple[str, ...]]:
        """Beam search: lexical seeds, hyperlink expansion, learned scores."""
        cfg = self.config
        state0 = self.dense.encode_query(question)
        seeds = self.lexical.retrieve(question, k=cfg.n_seeds, field="text")
        scored_paths: List[Tuple[float, Tuple[int, int]]] = []
        seen = set()
        for seed in seeds:
            seed_vec = self._doc_vec(seed.doc_id)
            seed_score = self._score(state0, seed_vec)
            state1 = self._state_update(state0, seed_vec)
            candidates = self._candidates(seed.doc_id, question)
            if not candidates:
                continue
            ranked = sorted(
                candidates,
                key=lambda d: -self._score(state1, self._doc_vec(d)),
            )
            for hop2 in ranked[: cfg.beam]:
                if hop2 == seed.doc_id or (seed.doc_id, hop2) in seen:
                    continue
                seen.add((seed.doc_id, hop2))
                total = seed_score + self._score(state1, self._doc_vec(hop2))
                scored_paths.append((total, (seed.doc_id, hop2)))
        scored_paths.sort(key=lambda item: -item[0])
        return [
            (self.corpus[a].title, self.corpus[b].title)
            for _, (a, b) in scored_paths[:k_paths]
        ]

    # -- training -----------------------------------------------------------
    def train(
        self,
        questions: Sequence,
        verbose: bool = False,
    ) -> List[float]:
        """Train the recurrent scorer on gold paths vs. sampled negatives.

        Each question with a gold path ``(g1, g2)`` contributes two
        listwise decisions: rank ``g1`` above lexical-seed distractors at
        step 1, and rank ``g2`` above other hyperlink neighbours of ``g1``
        at step 2. The scoring head is the trainable part; the recurrent
        state transition is a fixed random projection (echo-state style),
        and the encoder stays frozen — enough capacity for the baseline's
        role in Table V while keeping its defining constraint (the
        hyperlink graph) intact.
        """
        cfg = self.config
        self.dense._ensure_fresh()
        optimizer = Adam(
            self.recurrent.parameters() + self.score_head.parameters(), lr=cfg.lr
        )
        rng = np.random.RandomState(cfg.seed)
        losses: List[float] = []
        examples = []
        for question in questions:
            golds = [
                self.corpus.by_title(t)
                for t in getattr(question, "gold_titles", [])
            ]
            if len(golds) < 2 or any(g is None for g in golds):
                continue
            examples.append((question.text, golds[0].doc_id, golds[1].doc_id))
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(examples))
            epoch_losses = []
            for i in order:
                text, g1, g2 = examples[i]
                loss = self._example_loss(text, g1, g2, rng)
                if loss is None:
                    continue
                for parameter in optimizer.parameters:
                    parameter.zero_grad()
                loss.backward()
                optimizer.clip_grad_norm(CLIP_NORM)
                optimizer.step()
                epoch_losses.append(loss.item())
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            losses.append(mean_loss)
            if verbose:  # pragma: no cover
                print(f"[pathretriever] epoch {epoch + 1}/{cfg.epochs} "
                      f"loss={mean_loss:.4f}")
        return losses

    def _example_loss(self, question, g1, g2, rng):
        state0 = self.dense.encode_query(question)
        seeds = [h.doc_id for h in self.lexical.retrieve(question, k=6, field="text")]
        step1 = [g1] + [d for d in seeds if d != g1][:5]
        if len(step1) < 2:
            return None
        loss1 = self._listwise(state0, step1, 0)
        state1 = self._state_update(state0, self._doc_vec(g1))
        neighbours = [
            d.doc_id for d in self.corpus.neighbours(self.corpus[g1]) if d.doc_id != g2
        ]
        if g2 not in [d.doc_id for d in self.corpus.neighbours(self.corpus[g1])]:
            return loss1  # gold not linked: only step-1 supervision exists
        step2 = [g2] + neighbours[:5]
        if len(step2) < 2:
            return loss1
        return loss1 + self._listwise(state1, step2, 0)

    def _listwise(self, state: np.ndarray, doc_ids: List[int], gold: int) -> Tensor:
        joints = np.stack(
            [np.concatenate([state, self._doc_vec(d)]) for d in doc_ids]
        )
        logits = self.score_head(Tensor(joints)).reshape(-1)
        return -logits.softmax(axis=-1).log()[gold]
