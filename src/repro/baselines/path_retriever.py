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

from repro.baselines.dense_base import DenseRetriever
from repro.baselines.lexical import LexicalRetriever
from repro.data.corpus import Corpus
from repro.encoder.minibert import MiniBertEncoder
from repro.nn.layers import Linear
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor


N_SEEDS = 8  # lexical seed documents the beam search starts from
BEAM = 4  # hyperlink neighbours expanded per seed
LR = 1e-3
SEED = 37  # of the scorer's init and of the example order


@dataclass
class PathRetrieverConfig:
    """Training knobs."""

    epochs: int = 2


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
        config: Optional[PathRetrieverConfig] = None,
    ):
        self.encoder = encoder
        self.corpus = corpus
        self.config = config or PathRetrieverConfig()
        self.dense = DenseRetriever(encoder, corpus)
        self.lexical = LexicalRetriever(corpus)
        rng = np.random.RandomState(SEED)
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

    def _candidates(self, doc_id: int) -> List[int]:
        """Hyperlink neighbours of ``doc_id`` (the graph constraint)."""
        return [d.doc_id for d in self.corpus.neighbours(self.corpus[doc_id])]

    # -- retrieval ------------------------------------------------------------
    def retrieve_paths(self, question: str, k_paths: int) -> List[Tuple[str, ...]]:
        """Beam search: lexical seeds, hyperlink expansion, learned scores."""
        state0 = self.dense.encode_queries([question])[0]
        seeds = self.lexical.retrieve(question, k=N_SEEDS, field="text")
        scored_paths: List[Tuple[float, Tuple[int, int]]] = []
        seen = set()
        for seed in seeds:
            seed_vec = self._doc_vec(seed.doc_id)
            seed_score = self._score(state0, seed_vec)
            state1 = self._state_update(state0, seed_vec)
            candidates = self._candidates(seed.doc_id)
            if not candidates:
                continue
            ranked = sorted(
                candidates,
                key=lambda d: -self._score(state1, self._doc_vec(d)),
            )
            for hop2 in ranked[:BEAM]:
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
        self.dense._ensure_fresh()
        examples = []
        for question in questions:
            golds = [
                self.corpus.by_title(t)
                for t in getattr(question, "gold_titles", [])
            ]
            if len(golds) < 2 or any(g is None for g in golds):
                continue
            examples.append((question.text, golds[0].doc_id, golds[1].doc_id))
        return train_epochs(
            Adam(
                self.recurrent.parameters() + self.score_head.parameters(),
                lr=LR,
            ),
            len(examples),
            lambda index: self._example_loss(*examples[index]),
            epochs=self.config.epochs,
            rng=np.random.RandomState(SEED),
            name="pathretriever",
            verbose=verbose,
        )

    def _example_loss(self, question, g1, g2):
        state0 = self.dense.encode_queries([question])[0]
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
