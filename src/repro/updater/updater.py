"""The learned question updater (paper Sec. III-C).

The paper scores each candidate triple by encoding the concatenation
``L = q ⊕ t_i`` and, during training, comparing it to the encoding of the
ground next-hop question ``q'``; the highest-scoring triple becomes the
updater-clue. We realize this as a selector: a linear head over the
encoder's representation of ``q ⊕ t_i`` produces the clue score, trained
listwise so the gold clue (the triple whose concatenation is most similar
to the ground ``q'`` — exactly the paper's training-time criterion)
outranks its siblings. At inference no ``q'`` is needed: the head alone
scores the candidates in O(|T_d|) — and, inside the multi-hop pipeline,
without an encoder call: the one feature that needs embeddings,
cos(enc(t_i), enc(q)), is what hop 1 already scored, so
:meth:`QuestionUpdater.select_clue` takes it as ``cosines``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus, Document
from repro.data.hotpot import HotpotQuestion
from repro.encoder.minibert import MiniBertEncoder
from repro.nn.layers import Linear
from repro.nn.optim import CLIP_NORM, Adam
from repro.nn.tensor import Tensor
from repro.oie.triple import Triple
from repro.retriever.store import TripleStore
from repro.retriever.strategies import l2_normalize_rows, l2_normalize_vec
from repro.text.tokenize import tokenize
from repro.updater.golden import ground_clue_index


@dataclass
class UpdaterConfig:
    """Updater model/training knobs."""

    epochs: int = 2
    lr: float = 1e-2
    logit_scale: float = 1.0
    max_candidates: int = 12
    seed: int = 23
    train_encoder: bool = False  # head-only by default (encoder is shared)
    # Use only the scalar novelty statistics as head input. Empirically
    # the high-dimensional embedding blocks *hurt* clue selection (a
    # linear head overfits ~200 noisy dimensions on a few hundred
    # examples); the 4 scalars carry the signal. Set False to include the
    # [enc(q ⊕ t); enc(t)] blocks.
    scalars_only: bool = True


class QuestionUpdater:
    """Selects the updater-clue triple and composes the new question."""

    def __init__(self, encoder: MiniBertEncoder, config: Optional[UpdaterConfig] = None):
        self.encoder = encoder
        self.config = config or UpdaterConfig()
        rng = np.random.RandomState(self.config.seed)
        # features per candidate: [enc(q ⊕ t); enc(t); scalars]. The scalar
        # block matters most: "this triple introduces a novel rare entity"
        # is a *statistic* of the token sets, not a fixed direction in
        # embedding space, so a linear head cannot recover it from bag-like
        # embeddings alone.
        self.n_scalar_features = 4
        feature_dim = (
            self.n_scalar_features
            if self.config.scalars_only
            else 2 * encoder.config.dim + self.n_scalar_features
        )
        self.head = Linear(feature_dim, 1, rng=rng)

    # -- scoring ---------------------------------------------------------
    def _concat_texts(self, question: str, triples: Sequence[Triple]) -> List[str]:
        return [f"{question} {t.flatten()}" for t in triples]

    def _question_cosines(
        self, question: str, triple_vecs: np.ndarray
    ) -> np.ndarray:
        """cos(enc(t), enc(q)) per row of ``triple_vecs``: the reference
        form of the third novelty scalar, for callers without hop-1 scores."""
        question_vec = l2_normalize_vec(self.encoder.encode_numpy([question])[0])
        return l2_normalize_rows(triple_vecs) @ question_vec

    def _scalar_features(
        self,
        question: str,
        triples: Sequence[Triple],
        cosines: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(n, 4) novelty statistics per candidate triple.

        [idf-weighted novelty fraction, novel capitalized tokens,
        cos(enc(t), enc(q)), normalized triple length]

        ``cosines`` is the third column when the caller already holds it
        (see :meth:`select_clue`); without it the question and the
        triples are encoded here.
        """
        vocab = self.encoder.vocab
        weights = self.encoder._token_weights
        question_tokens = set(tokenize(question))
        if cosines is None:
            cosines = self._question_cosines(
                question,
                self.encoder.encode_numpy([t.flatten() for t in triples]),
            )
        rows = []
        for i, triple in enumerate(triples):
            tokens = tokenize(triple.flatten())
            total_idf = sum(weights[vocab.id_of(t)] for t in tokens) or 1.0
            novel_idf = sum(
                weights[vocab.id_of(t)]
                for t in tokens
                if t not in question_tokens
            )
            novel_caps = sum(
                1
                for word in triple.flatten().split()
                if word[:1].isupper() and word.lower() not in question_tokens
            )
            rows.append(
                [
                    novel_idf / total_idf,
                    min(novel_caps, 5) / 5.0,
                    float(cosines[i]),
                    min(len(tokens), 30) / 30.0,
                ]
            )
        return np.asarray(rows)

    def _features(
        self,
        question: str,
        triples: Sequence[Triple],
        cosines: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Feature matrix for the candidate triples (see ``scalars_only``)."""
        if self.config.scalars_only:
            return self._scalar_features(question, triples, cosines)
        # the enc(t) block and the cosine scalar share one encoding
        triple_vecs = self.encoder.encode_numpy([t.flatten() for t in triples])
        if cosines is None:
            cosines = self._question_cosines(question, triple_vecs)
        scalars = self._scalar_features(question, triples, cosines)
        concat = self.encoder.encode_numpy(self._concat_texts(question, triples))
        return np.concatenate([concat, triple_vecs, scalars], axis=1)

    def score_triples(
        self,
        question: str,
        triples: Sequence[Triple],
        *,
        cosines: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Clue scores for every candidate triple (no gradients).

        ``cosines`` — shape ``(len(triples),)``, cos(enc(t_i), enc(q)) in
        ``triples`` order — is the one feature that needs the encoder. A
        caller that already scored the question against these triples
        (hop 1 did: ``RetrievedDocument.triple_scores``) hands it in and
        no text is encoded; without it the question and the triples are
        encoded here, which is the reference the handed-in form is
        tested against.
        """
        if cosines is not None:
            cosines = np.asarray(cosines)
            if cosines.shape != (len(triples),):
                raise ValueError(
                    f"cosines has shape {cosines.shape}, expected "
                    f"({len(triples)},): one per candidate triple"
                )
        if not triples:
            return np.zeros(0)
        features = self._features(question, triples, cosines)
        return (features @ self.head.weight.data).reshape(-1) + float(
            self.head.bias.data[0]
        )

    def select_clue(
        self,
        question: str,
        triples: Sequence[Triple],
        *,
        cosines: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[int, Triple]]:
        """The best clue triple (index, triple), or None without candidates.

        ``cosines`` as in :meth:`score_triples`.
        """
        scores = self.score_triples(question, triples, cosines=cosines)
        if scores.size == 0:
            return None
        index = int(scores.argmax())
        return index, triples[index]


class UpdaterTrainer:
    """Trains the updater head (and optionally the encoder) listwise."""

    def __init__(self, updater: QuestionUpdater, config: Optional[UpdaterConfig] = None):
        self.updater = updater
        self.config = config or updater.config
        self._rng = np.random.RandomState(self.config.seed)

    def build_examples(
        self,
        questions: Sequence[HotpotQuestion],
        corpus: Corpus,
        store: TripleStore,
    ) -> List[Tuple[str, List[Triple], int]]:
        """(question, hop-1 candidate triples, gold index) instances.

        Only bridge questions supervise the updater — for comparison
        questions both documents match the original question directly.
        """
        examples = []
        for question in questions:
            if not question.is_bridge or len(question.gold_titles) < 2:
                continue
            hop1 = corpus.by_title(question.gold_titles[0])
            hop2 = corpus.by_title(question.gold_titles[1])
            if hop1 is None or hop2 is None:
                continue
            triples = store.triples(hop1.doc_id)[: self.config.max_candidates]
            gold = ground_clue_index(triples, hop2)
            if gold is None or len(triples) < 2:
                continue
            examples.append((question.text, triples, gold))
        return examples

    def train(
        self,
        examples: Sequence[Tuple[str, List[Triple], int]],
        verbose: bool = False,
    ) -> List[float]:
        """Listwise training; returns per-epoch mean losses."""
        cfg = self.config
        updater = self.updater
        encoder_model = updater.encoder.model
        parameters = updater.head.parameters()
        if cfg.train_encoder:
            parameters = parameters + encoder_model.parameters()
        optimizer = Adam(parameters, lr=cfg.lr)
        losses: List[float] = []
        for epoch in range(cfg.epochs):
            order = self._rng.permutation(len(examples))
            epoch_losses = []
            for i in order:
                question, triples, gold = examples[i]
                if cfg.train_encoder and not cfg.scalars_only:
                    encoder_model.train()
                    texts = updater._concat_texts(question, triples)
                    concat = updater.encoder.encode(texts)
                    triple_vecs = updater.encoder.encode(
                        [t.flatten() for t in triples]
                    )
                    scalars = Tensor(
                        updater._scalar_features(question, triples)
                    )
                    features = Tensor.concat(
                        [concat, triple_vecs, scalars], axis=1
                    )
                else:
                    features = Tensor(updater._features(question, triples))
                logits = updater.head(features).reshape(-1)
                logits = logits * cfg.logit_scale
                loss = -logits.softmax(axis=-1).log()[gold]
                for parameter in parameters:
                    parameter.zero_grad()
                loss.backward()
                optimizer.clip_grad_norm(CLIP_NORM)
                optimizer.step()
                epoch_losses.append(loss.item())
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            losses.append(mean_loss)
            if verbose:  # pragma: no cover - console output
                print(f"[updater] epoch {epoch + 1}/{cfg.epochs} "
                      f"loss={mean_loss:.4f}")
        encoder_model.eval()
        return losses
