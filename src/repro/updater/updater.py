"""The learned question updater (paper Sec. III-C).

The paper scores each candidate triple by encoding the concatenation
``L = q ⊕ t_i`` and, during training, comparing it to the encoding of the
ground next-hop question ``q'``; the highest-scoring triple becomes the
updater-clue. We realize this as a selector: a linear head over four
novelty statistics of each candidate triple produces the clue score,
trained listwise so the gold clue (the triple whose concatenation is most
similar to the ground ``q'`` — exactly the paper's training-time
criterion) outranks its siblings. (A head over the ``[enc(q ⊕ t_i);
enc(t_i)]`` blocks as well selected worse clues; DESIGN §5 item 5.) At
inference no ``q'`` is needed: the head alone scores the candidates in
O(|T_d|) — and, inside the multi-hop pipeline, without an encoder call:
the one feature that needs embeddings, cos(enc(t_i), enc(q)), is what
hop 1 already scored, so
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
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor
from repro.oie.triple import Triple
from repro.retriever.store import TripleStore
from repro.retriever.strategies import l2_normalize_rows, l2_normalize_vec
from repro.text.tokenize import tokenize
from repro.updater.golden import ground_clue_index

#: hop-1 beam documents as ``(doc id or None, triples)``
Beam = Sequence[Tuple[Optional[int], Sequence[Triple]]]


LR = 1e-2
MAX_CANDIDATES = 12  # hop-1 triples per training example, gold clue among them
SEED = 23  # of the head's init and of the example order


@dataclass
class UpdaterConfig:
    """Updater training knobs."""

    epochs: int = 2


class QuestionUpdater:
    """Selects the updater-clue triple and composes the new question."""

    #: head inputs per candidate triple (see :meth:`_scalar_features`)
    N_SCALARS = 4

    def __init__(self, encoder: MiniBertEncoder, config: Optional[UpdaterConfig] = None):
        self.encoder = encoder
        self.config = config or UpdaterConfig()
        rng = np.random.RandomState(SEED)
        # "this triple introduces a novel rare entity" is a *statistic* of
        # the token sets, not a fixed direction in embedding space, so the
        # head reads statistics, not embeddings
        self.head = Linear(self.N_SCALARS, 1, rng=rng)
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
        features = np.empty((n, self.N_SCALARS))
        features[:, 0] = (
            np.bincount(rows[novel], weights[novel], minlength=n) / total_idf
        )
        features[:, 1] = np.minimum(novel_caps, 5) / 5.0
        features[:, 2] = cosines
        features[:, 3] = np.minimum(counts, 30) / 30.0
        return features

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
        terms = self._scalar_features(
            question, [doc for doc in beam if doc[1]], cosines
        ) * self.head.weight.data[:, 0]
        scores = terms[:, 0].copy()
        for column in terms.T[1:]:
            scores += column
        scores += float(self.head.bias.data[0])
        bounds = list(accumulate(sizes, initial=0))
        return [scores[a:b] for a, b in zip(bounds, bounds[1:])]

    def score_triples(
        self, question: str, triples: Sequence[Triple]
    ) -> np.ndarray:
        """Clue scores for every candidate triple (no gradients). The
        question and the triples are encoded here for the cosine feature:
        the reference :meth:`select_clues`' handed-in cosines are tested
        against."""
        return self._beam_scores(question, [(None, triples)], None)[0]

    def select_clues(
        self, question: str, beam: Beam, cosines: Optional[Sequence] = None
    ) -> List[Optional[Tuple[int, Triple]]]:
        """:meth:`select_clue` for every beam document, in one pass over
        all the beam's triples. ``beam`` holds ``(doc id, triples)``; the
        doc id keys the memo of its token statistics (None: no memo).
        ``cosines``: one array per document, each of shape
        ``(len(triples),)`` holding cos(enc(t_i), enc(q)) in ``triples``
        order — the one feature that needs the encoder. Hop 1 already
        scored the question against these triples
        (``RetrievedDocument.triple_scores``), so a path request hands
        them in and no text is encoded; without them the question and the
        triples are encoded here.
        """
        scores = self._beam_scores(question, beam, cosines)
        return [_best(doc[1], doc_scores) for doc, doc_scores in zip(beam, scores)]

    def select_clue(
        self, question: str, triples: Sequence[Triple]
    ) -> Optional[Tuple[int, Triple]]:
        """The best clue triple (index, triple) — the first of equal best
        scores — or None without candidates."""
        return _best(triples, self.score_triples(question, triples))


def _best(
    triples: Sequence[Triple], scores: np.ndarray
) -> Optional[Tuple[int, Triple]]:
    """The first of the best-scoring triples; None without triples."""
    if not scores.size:
        return None
    index = int(scores.argmax())
    return index, triples[index]


class UpdaterTrainer:
    """Trains the updater head listwise; the shared encoder stays as is."""

    def __init__(self, updater: QuestionUpdater):
        self.updater = updater
        self._rng = np.random.RandomState(SEED)

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
            triples = store.triples(hop1.doc_id)[:MAX_CANDIDATES]
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
        """Listwise training of the head; returns per-epoch mean losses."""
        updater = self.updater

        def example_loss(index: int) -> Tensor:
            question, triples, gold = examples[index]
            features = updater._scalar_features(question, [(None, triples)])
            logits = updater.head(Tensor(features)).reshape(-1)
            return -logits.softmax(axis=-1).log()[gold]

        return train_epochs(
            Adam(updater.head.parameters(), lr=LR),
            len(examples),
            example_loss,
            epochs=updater.config.epochs,
            rng=self._rng,
            name="updater",
            verbose=verbose,
        )
