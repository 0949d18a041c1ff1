"""One clue selection per question: what the beam-wide selector must keep.

``QuestionUpdater.select_clues`` scores every triple of a whole hop-1
beam in one pass over token statistics memoised per document version.
These pin what a fast path could quietly give up:

* the scores are bitwise the triple-by-triple reference
  (``tests/reference.py``), out-of-vocabulary tokens, clitics, repeated
  capitals, zero-token triples and empty documents included;
* a document's scores do not depend on the beam it sits in;
* the memo follows the store (``put``) and the encoder (``fit_idf``),
  and holds one entry per document however often it is replaced;
* a path request makes one ``select_clues`` call per question, still
  two encoder calls, and composes ``updated_question`` only for the
  returned paths' clues, once each.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import clue_features_reference, clue_scores_reference

import repro.pipeline.multihop as multihop_mod
from repro.encoder import EncoderConfig, MiniBertEncoder
from repro.net.bootstrap import DyadicEncoder
from repro.oie.triple import Triple
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.retriever.store import TripleStore
from repro.text import Vocab
from repro.updater.updater import QuestionUpdater

IN_VOCAB = ["davis", "played", "for", "millwall", "club", "born", "in",
            "'s", "1885", "."]
WORDS = [
    "Davis", "davis", "played", "for", "Millwall", "club's", "Club",
    "born", "in", "1885", "1885.", "F.C.", "it's", "Zork", "zork",
    "Quux", "quux's", "-", "Davis,", "(41)",
]


def _synthetic_encoder(weights_seed):
    """A vocabulary over ``IN_VOCAB`` (every other word is out of it)
    with irregular idf weights: sums are order-sensitive."""
    vocab = Vocab(IN_VOCAB)
    weights = np.random.RandomState(weights_seed).uniform(0.1, 3.0, len(vocab))
    return SimpleNamespace(
        vocab=vocab, _token_weights=weights, config=SimpleNamespace(dim=4)
    )


def _updater(encoder, head_seed=0):
    updater = QuestionUpdater(encoder)
    updater.head.weight.data = np.random.RandomState(head_seed).normal(
        size=(4, 1)
    )
    return updater


phrases = st.lists(st.sampled_from(WORDS), min_size=0, max_size=4).map(" ".join)
triples = st.builds(Triple, phrases, phrases, phrases)
documents = st.lists(triples, min_size=1, max_size=4)


@st.composite
def beams(draw):
    """Non-empty documents with an empty one forced at the first, a
    middle or the last slot (or none), and float32/float64 cosines."""
    docs = draw(st.lists(documents, min_size=1, max_size=4))
    slot = draw(st.sampled_from(["none", "first", "middle", "last"]))
    at = {"none": None, "first": 0, "middle": len(docs) // 2 + 1,
          "last": len(docs) + 1}[slot]
    if at is not None:
        docs.insert(min(at, len(docs)), [])
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    cosines = [
        np.asarray(
            draw(st.lists(st.floats(-1, 1, width=32), min_size=len(d),
                          max_size=len(d))),
            dtype=dtype,
        )
        for d in docs
    ]
    return docs, cosines


def _scores_bytes(scores):
    return [np.asarray(s, dtype=np.float64).tobytes() for s in scores]


class TestScalarReference:
    @pytest.mark.parametrize("vocabulary", ["vocab", "unit"])
    @settings(max_examples=150, deadline=None)
    @given(beam=beams(), question=phrases, seed=st.integers(0, 3))
    def test_beam_scores_equal_the_reference_bitwise(
        self, vocabulary, beam, question, seed
    ):
        docs, cosines = beam
        encoder = (
            _synthetic_encoder(seed) if vocabulary == "vocab"
            else DyadicEncoder()
        )
        updater = _updater(encoder, seed)
        beam_docs = [(doc_id, doc) for doc_id, doc in enumerate(docs)]
        got = updater._beam_scores(question, beam_docs, cosines)
        want = [
            clue_scores_reference(updater, question, doc, doc_cosines)
            for doc, doc_cosines in zip(docs, cosines)
        ]
        assert _scores_bytes(got) == _scores_bytes(want)
        filled = [(i, doc) for i, doc in beam_docs if doc]
        features = updater._scalar_features(
            question, filled, np.concatenate([cosines[i] for i, _ in filled])
        )
        want_features = np.concatenate([
            clue_features_reference(encoder, question, doc, cosines[i])
            for i, doc in filled
        ])
        assert features.tobytes() == want_features.tobytes()
        picks = updater.select_clues(question, beam_docs, cosines)
        for doc, pick, scores in zip(docs, picks, want):
            if not doc:
                assert pick is None
            else:
                index = int(np.argmax(scores))  # the first of equal best
                assert pick == (index, doc[index])
        # the memoised statistics answer the same, a second time
        again = updater._beam_scores(question, beam_docs, cosines)
        assert _scores_bytes(again) == _scores_bytes(got)

    def test_out_of_vocabulary_tokens_are_told_apart(self):
        """Two unknown tokens share the UNK vocab id, not a string id: a
        question that names one leaves the other novel."""
        updater = _updater(_synthetic_encoder(1))
        doc = [Triple("Zork", "played", "Quux")]
        question = "who is zork ?"
        (scores,) = updater._beam_scores(question, [(7, doc)], [np.zeros(1)])
        want = clue_scores_reference(updater, question, doc, np.zeros(1))
        assert scores.tobytes() == want.tobytes()
        features = updater._scalar_features(question, [(7, doc)], np.zeros(1))
        assert 0.0 < features[0, 0] < 1.0  # quux novel, zork not
        assert features[0, 1] == 1 / 5  # one novel capitalized word

    def test_zero_token_triple(self):
        updater = _updater(_synthetic_encoder(2))
        doc = [Triple("", "", ""), Triple("Davis", "played for", "Millwall")]
        features = updater._scalar_features("davis ?", [(0, doc)], np.zeros(2))
        assert features[0].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert features.tobytes() == clue_features_reference(
            updater.encoder, "davis ?", doc, np.zeros(2)
        ).tobytes()


class TestBeamIndependence:
    def test_scores_alone_in_a_beam_and_permuted(self, retriever, store):
        updater = QuestionUpdater(retriever.encoder)
        updater.head.weight.data = np.random.RandomState(3).normal(size=(4, 1))
        for question in ["Who founded the club?", "Where was the band formed?"]:
            hits = retriever.retrieve(question, k=8, keep_triple_scores=True)
            beam = [(h.doc_id, store.triples(h.doc_id)) for h in hits]
            cosines = [h.triple_scores for h in hits]
            together = _scores_bytes(updater._beam_scores(question, beam, cosines))
            alone = [
                _scores_bytes(updater._beam_scores(question, [doc], [c]))[0]
                for doc, c in zip(beam, cosines)
            ]
            assert together == alone
            order = np.random.RandomState(4).permutation(len(beam))
            permuted = _scores_bytes(updater._beam_scores(
                question, [beam[i] for i in order], [cosines[i] for i in order]
            ))
            assert permuted == [together[i] for i in order]


class TestMemo:
    def test_put_of_new_triples_is_picked_up(self):
        encoder = _synthetic_encoder(5)
        updater = _updater(encoder)
        first = [Triple("Davis", "played for", "Millwall")]
        second = [Triple("Davis", "born in", "Zork"), Triple("Quux", "in", "1885")]
        question = "davis played for whom ?"
        for doc in (first, second, first):
            cosines = np.linspace(0.1, 0.2, len(doc))
            (scores,) = updater._beam_scores(question, [(0, doc)], [cosines])
            want = clue_scores_reference(updater, question, doc, cosines)
            assert scores.tobytes() == want.tobytes()
            assert updater._lexicon[0][0] is doc

    def test_store_put_supersedes_the_entry(self, store):
        own = TripleStore(store.corpus)
        encoder = DyadicEncoder()
        updater = _updater(encoder)
        question = "where was millwall founded ?"
        for round_ in range(1000):
            # an equal list each time: a new version of the same document
            own.put(0, [Triple("Davis", "played for", f"Club{round_ % 3}")])
            triples = own.triples(0)
            (pick,) = updater.select_clues(
                question, [(0, triples)], [np.zeros(1)]
            )
            assert pick == (0, triples[0])
        assert list(updater._lexicon) == [0]
        assert updater._lexicon[0][0] is own.triples(0)
        # strings are interned once, not once per version: the tokens,
        # then the capitalized words lower-cased
        assert set(updater._string_ids) == {
            "davis", "played", "for", "club", "0", "1", "2",
            "club0", "club1", "club2",
        }

    def test_fit_idf_refit_is_seen(self, vocab, store, corpus):
        encoder = MiniBertEncoder(
            vocab, EncoderConfig(dim=8, n_layers=1, n_heads=2, max_len=16)
        )
        updater = _updater(encoder, 6)
        doc_id = store.doc_ids()[0]
        triples = store.triples(doc_id)
        cosines = np.linspace(-0.5, 0.5, len(triples))
        # partly novel triples: their novelty fraction is idf-weighted
        question = f"Where is {triples[0].subject}?"

        def both():
            (scores,) = updater._beam_scores(
                question, [(doc_id, triples)], [cosines]
            )
            return scores, clue_scores_reference(
                updater, question, triples, cosines
            )

        uniform, want = both()
        assert uniform.tobytes() == want.tobytes()
        encoder.fit_idf([store.field_text(d.doc_id) for d in corpus])
        refit, want = both()
        assert refit.tobytes() == want.tobytes()
        assert refit.tobytes() != uniform.tobytes()

    def test_threads_share_one_memo(self, retriever, store):
        """Concurrent first looks intern every string exactly once."""
        questions = ["Who founded the club?", "Where was the band formed?",
                     "Which city is the university in?"]
        calls = []
        for question in questions:
            hits = retriever.retrieve(question, k=8, keep_triple_scores=True)
            calls.append((
                question,
                [(h.doc_id, store.triples(h.doc_id)) for h in hits],
                [h.triple_scores for h in hits],
            ))
        serial = QuestionUpdater(retriever.encoder)
        want = [_scores_bytes(serial._beam_scores(*call)) for call in calls]
        shared = QuestionUpdater(retriever.encoder)
        got = [[] for _ in range(8)]

        def work(slot):
            for call in calls * 3:
                got[slot].append(_scores_bytes(shared._beam_scores(*call)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(slot == want * 3 for slot in got)
        assert set(shared._string_ids) == set(serial._string_ids)
        ids = list(shared._string_ids.values())
        assert len(set(ids)) == len(ids)


class TestOneSelectionPerQuestion:
    @pytest.mark.parametrize("batch", [1, 4])
    def test_calls_per_request(self, retriever, encoder, hotpot, monkeypatch, batch):
        seen = {"select_clues": 0, "select_clue": 0, "encode": 0}
        composed = []
        for name in ("select_clues", "select_clue"):
            real = getattr(QuestionUpdater, name)

            def spy(self, *args, _real=real, _name=name, **kwargs):
                seen[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(QuestionUpdater, name, spy)
        real_encode = type(encoder).encode_numpy

        def counting(self, texts, *args, **kwargs):
            seen["encode"] += 1
            return real_encode(self, texts, *args, **kwargs)

        monkeypatch.setattr(type(encoder), "encode_numpy", counting)
        real_compose = multihop_mod.compose_updated_question

        def compose(question, clue):
            composed.append((question, clue))
            return real_compose(question, clue)

        monkeypatch.setattr(multihop_mod, "compose_updated_question", compose)
        multihop = MultiHopRetriever(
            retriever, QuestionUpdater(encoder), MultiHopConfig(k_paths=3)
        )
        questions = [q.text for q in hotpot.test[:batch]]
        results = multihop.retrieve_paths_batch(questions)
        assert seen == {"select_clues": batch, "select_clue": 0, "encode": 2}
        returned = {
            (question, path.clue)
            for question, paths in zip(questions, results)
            for path in paths
            if path.clue is not None
        }
        assert len(composed) == len(set(composed))  # once per distinct clue
        assert set(composed) == returned  # and only for returned paths
        for question, paths in zip(questions, results):
            for path in paths:
                assert path.updated_question == (
                    question if path.clue is None
                    else real_compose(question, path.clue)
                )
