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
:meth:`QuestionUpdater.select_clues` takes it as ``cosines`` and scores
every triple of the whole hop-1 beam in one pass over token statistics
tokenised once per document version.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

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

#: hop-1 beam documents as ``(doc id or None, triples)``
Beam = Sequence[Tuple[Optional[int], Sequence[Triple]]]


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
        # doc id -> (its triple list, packed token statistics, n tokens)
        self._lexicon: Dict[int, Tuple[Sequence[Triple], np.ndarray, int]] = {}
        # string -> id: its vocab id if the vocabulary holds it verbatim,
        # else the next id past the vocabulary (two unknown strings share
        # the UNK vocab id, never an id); those strings' vocab ids
        self._string_ids: Dict[str, int] = {}
        self._unheld_vocab_ids: List[int] = []
        self._lexicon_lock = threading.Lock()

    # -- lexical statistics ----------------------------------------------
    def _string_id(self, text: str) -> int:
        string_id = self._string_ids.get(text)
        if string_id is None:  # under ``_lexicon_lock``
            vocab = self.encoder.vocab
            string_id = vocab.id_of(text)
            if vocab.token_of(string_id) != text:
                # the vocab id first: whoever sees the string id finds it
                self._unheld_vocab_ids.append(string_id)
                string_id = len(vocab) + len(self._unheld_vocab_ids) - 1
            self._string_ids[text] = string_id
        return string_id

    def _lexical(self, doc_id: Optional[int], triples: Sequence[Triple]):
        """One document's token counts and capitalized-word counts per
        triple, its tokens' and its capitalized words' (lower-cased)
        string ids — memoised as one packed array per document version:
        keyed by doc id, valid while the store holds the same triple list
        (``TripleStore`` replaces a list, never edits it).
        """
        entry = self._lexicon.get(doc_id)
        if entry is None or entry[0] is not triples:
            counts, capitals, token_ids, capital_ids = [], [], [], []
            with self._lexicon_lock:
                for triple in triples:
                    text = triple.flatten()
                    tokens = tokenize(text)
                    words = [w.lower() for w in text.split() if w[:1].isupper()]
                    counts.append(len(tokens))
                    capitals.append(len(words))
                    token_ids += map(self._string_id, tokens)
                    capital_ids += map(self._string_id, words)
            packed = counts + capitals + token_ids + capital_ids
            # the narrowest unsigned type that holds them: entries stay small
            dtype = np.min_scalar_type(max(packed, default=0))
            entry = (triples, np.array(packed, dtype), len(token_ids))
            if doc_id is not None:
                self._lexicon[doc_id] = entry
        _, packed, n_tokens = entry
        n, cut = len(triples), 2 * len(triples) + n_tokens
        return packed[:n], packed[n : 2 * n], packed[2 * n : cut], packed[cut:]

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
        self, question: str, beam: Beam, cosines: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(n, 4) novelty statistics of every triple of every beam document.

        [idf-weighted novelty fraction, novel capitalized words,
        cos(enc(t), enc(q)), normalized triple length]

        ``cosines`` (flat, in beam order) is the third column when the
        caller already holds it (see :meth:`select_clues`); without it the
        question and the triples are encoded here. Sums run per triple in
        token order (``np.bincount``), as Python's ``sum`` would.
        """
        counts, capitals, token_ids, capital_ids = (
            np.concatenate(part)
            for part in zip(*(self._lexical(*doc) for doc in beam))
        )
        if cosines is None:
            cosines = self._question_cosines(
                question,
                self.encoder.encode_numpy(
                    [t.flatten() for _, triples in beam for t in triples]
                ),
            )
        asked = [self._string_ids.get(t) for t in set(tokenize(question))]
        # read after every id in use was assigned: they all index in range
        unheld = self._unheld_vocab_ids[:]
        n_vocab = len(self.encoder.vocab)
        in_question = np.zeros(n_vocab + len(unheld), bool)
        in_question[[i for i in asked if i is not None]] = True
        # the idf weights as they are now: a ``fit_idf`` refit is seen
        weights = self.encoder._token_weights
        if unheld:
            weights = np.concatenate([weights[:n_vocab], weights[unheld]])
        weights = weights[token_ids]
        n = counts.size
        rows = np.repeat(np.arange(n), counts)
        novel = ~in_question[token_ids]
        total_idf = np.bincount(rows, weights, minlength=n)
        total_idf[total_idf == 0] = 1.0
        novel_caps = np.bincount(
            np.repeat(np.arange(n), capitals)[~in_question[capital_ids]],
            minlength=n,
        )
        features = np.empty((n, self.n_scalar_features))
        features[:, 0] = (
            np.bincount(rows[novel], weights[novel], minlength=n) / total_idf
        )
        features[:, 1] = np.minimum(novel_caps, 5) / 5.0
        features[:, 2] = cosines
        features[:, 3] = np.minimum(counts, 30) / 30.0
        return features

    def _features(
        self, question: str, beam: Beam, cosines: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Feature matrix for the beam's triples (see ``scalars_only``)."""
        if self.config.scalars_only:
            return self._scalar_features(question, beam, cosines)
        triples = [t for _, doc_triples in beam for t in doc_triples]
        # the enc(t) block and the cosine scalar share one encoding
        triple_vecs = self.encoder.encode_numpy([t.flatten() for t in triples])
        if cosines is None:
            cosines = self._question_cosines(question, triple_vecs)
        scalars = self._scalar_features(question, beam, cosines)
        concat = self.encoder.encode_numpy(self._concat_texts(question, triples))
        return np.concatenate([concat, triple_vecs, scalars], axis=1)

    def _beam_scores(
        self, question: str, beam: Beam, cosines: Optional[Sequence]
    ) -> List[np.ndarray]:
        """Clue scores per beam document. The head is applied column by
        column, so a triple's score does not depend on its beam."""
        sizes = [len(triples) for _, triples in beam]
        if cosines is not None:
            cosines = [np.asarray(c) for c in cosines]
            for size, shape in zip(sizes, (c.shape for c in cosines)):
                if shape != (size,):
                    raise ValueError(f"cosines has shape {shape}, expected "
                                     f"({size},): one per candidate triple")
            cosines = np.concatenate(cosines)
        if not any(sizes):
            return [np.zeros(0) for _ in beam]
        terms = self._features(
            question, [doc for doc in beam if doc[1]], cosines
        ) * self.head.weight.data[:, 0]
        scores = terms[:, 0].copy()
        for column in terms.T[1:]:
            scores += column
        scores += float(self.head.bias.data[0])
        bounds = list(accumulate(sizes, initial=0))
        return [scores[a:b] for a, b in zip(bounds, bounds[1:])]

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
        return self._beam_scores(
            question, [(None, triples)], None if cosines is None else [cosines]
        )[0]

    def select_clues(
        self, question: str, beam: Beam, cosines: Optional[Sequence] = None
    ) -> List[Optional[Tuple[int, Triple]]]:
        """:meth:`select_clue` for every beam document, in one pass over
        all the beam's triples. ``beam`` holds ``(doc id, triples)``; the
        doc id keys the memo of its token statistics (None: no memo).
        ``cosines``: one array per document, as in :meth:`score_triples`.
        """
        scores = self._beam_scores(question, beam, cosines)
        return [_best(doc[1], doc_scores) for doc, doc_scores in zip(beam, scores)]

    def select_clue(
        self,
        question: str,
        triples: Sequence[Triple],
        *,
        cosines: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[int, Triple]]:
        """The best clue triple (index, triple) — the first of equal best
        scores — or None without candidates.

        ``cosines`` as in :meth:`score_triples`.
        """
        return _best(triples, self.score_triples(question, triples, cosines=cosines))


def _best(
    triples: Sequence[Triple], scores: np.ndarray
) -> Optional[Tuple[int, Triple]]:
    """The first of the best-scoring triples; None without triples."""
    if not scores.size:
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
                beam = [(None, triples)]
                if cfg.train_encoder and not cfg.scalars_only:
                    encoder_model.train()
                    texts = updater._concat_texts(question, triples)
                    concat = updater.encoder.encode(texts)
                    triple_vecs = updater.encoder.encode(
                        [t.flatten() for t in triples]
                    )
                    scalars = Tensor(updater._scalar_features(question, beam))
                    features = Tensor.concat(
                        [concat, triple_vecs, scalars], axis=1
                    )
                else:
                    features = Tensor(updater._features(question, beam))
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
