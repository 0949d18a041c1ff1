"""Clue selection reads hop 1's triple cosines (ISSUE 15).

Two guards, both deterministic:

* a path request calls the encoder exactly twice — the questions, then
  the clue texts — whatever the batch size and beam width, and the perf
  counters see every row it encodes;
* handing ``select_clues`` hop 1's flat triple scores picks the same clue
  for every beam document, and so returns the same paths, as the
  reference form that encodes the question and the document's triples
  itself (a test-side ``QuestionUpdater`` that drops ``cosines``).
"""

import numpy as np
import pytest
from reference import clue_features_reference

from repro.data.corpus import Corpus, Document
from repro.data.world import Entity
from repro.net.bootstrap import DyadicEncoder, synthetic_bundle
from repro.oie.triple import Triple
from repro.perf import COUNTERS
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.retriever import SingleRetriever
from repro.retriever.store import TripleStore
from repro.updater.updater import QuestionUpdater


class RecordingUpdater(QuestionUpdater):
    """Records the clue (index, flattened text) chosen per beam document.

    ``drop_cosines=True`` is the behaviour before hop-1 scores were
    handed down: ignore them and encode question and triples here, one
    beam document at a time.
    """

    def __init__(self, encoder, drop_cosines):
        super().__init__(encoder)
        self.drop_cosines = drop_cosines
        self.picks = []
        self.texts = []

    def select_clues(self, question, beam, cosines=None):
        assert cosines is not None  # the pipeline always hands them down
        if self.drop_cosines:
            picked = []
            for document in beam:
                picked += super().select_clues(question, [document])
        else:
            picked = super().select_clues(question, beam, cosines)
        for pick in picked:
            self.picks.append(None if pick is None else pick[0])
            self.texts.append(None if pick is None else pick[1].flatten())
        return picked


def _both_ways(retriever, questions, config, **request):
    """(updater, paths) with hop-1 cosines and with the encoding reference."""
    out = []
    for drop_cosines in (False, True):
        updater = RecordingUpdater(retriever.encoder, drop_cosines)
        multihop = MultiHopRetriever(retriever, updater, config)
        out.append(
            (updater, multihop.retrieve_paths_batch(questions, **request))
        )
    return out


def _count_encoder_calls(monkeypatch, encoder):
    """Row counts of every ``encode_numpy`` call, in call order.

    Patched on the class: undoing an instance-level patch would leave a
    bound method in the session encoder's ``__dict__``.
    """
    calls = []
    original = type(encoder).encode_numpy

    def counting(self, texts, *args, **kwargs):
        calls.append(len(texts))
        return original(self, texts, *args, **kwargs)

    monkeypatch.setattr(type(encoder), "encode_numpy", counting)
    return calls


def _dyadic_store(documents):
    """A store over ``[(title, [triple, ...]), ...]``."""
    corpus = Corpus(
        [
            Document(
                doc_id=doc_id,
                title=title,
                text=" ".join(t.flatten() for t in triples),
                entity=Entity(uid=doc_id, name=title, kind="synthetic"),
            )
            for doc_id, (title, triples) in enumerate(documents)
        ]
    )
    store = TripleStore(corpus)
    for doc_id, (_title, triples) in enumerate(documents):
        store.put(doc_id, triples)
    return store


class TestEncoderCalls:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("k_hop1", [3, 8])
    def test_two_calls_per_path_request(
        self, retriever, encoder, hotpot, monkeypatch, batch, k_hop1
    ):
        multihop = MultiHopRetriever(
            retriever,
            QuestionUpdater(encoder),
            MultiHopConfig(k_hop1=k_hop1, k_hop2=3),
        )
        questions = [q.text for q in hotpot.test[:batch]]
        calls = _count_encoder_calls(monkeypatch, encoder)
        before = COUNTERS.snapshot()
        results = multihop.retrieve_paths_batch(questions)
        after = COUNTERS.snapshot()
        assert all(results)
        # every fixture document has triples, so every beam slot has a clue
        assert calls == [batch, batch * k_hop1]
        assert after["encode_calls"] - before["encode_calls"] == 2
        assert after["texts_encoded"] - before["texts_encoded"] == sum(calls)

    def test_one_call_when_no_document_yields_a_clue(self, monkeypatch):
        store = _dyadic_store([(f"Doc {i}", []) for i in range(6)])
        encoder = DyadicEncoder()
        multihop = MultiHopRetriever(
            SingleRetriever(encoder, store),
            QuestionUpdater(encoder),
            MultiHopConfig(k_hop1=3, k_hop2=2),
        )
        multihop.retriever.ensure_ready()
        calls = _count_encoder_calls(monkeypatch, encoder)
        before = COUNTERS.snapshot()
        (paths,) = multihop.retrieve_paths_batch(["which one ?"])
        after = COUNTERS.snapshot()
        assert calls == [1]
        assert after["texts_encoded"] - before["texts_encoded"] == 1
        assert paths and all(path.clue is None for path in paths)
        assert all(path.updated_question == "which one ?" for path in paths)


class TestParityWithEncodingReference:
    @pytest.fixture(scope="class")
    def sharded(self, encoder, store):
        """A second retriever on the session encoder, four centroid shards."""
        retriever = SingleRetriever(encoder, store)
        retriever.build_shards(4, mode="centroid", quantize=True)
        return retriever

    @pytest.mark.parametrize(
        "request_kwargs",
        [{}, {"nprobe": 2}, {"precision": "int8-rescore"}],
        ids=["exact", "nprobe", "int8-rescore"],
    )
    def test_minibert_same_clues_same_paths(
        self, sharded, hotpot, request_kwargs
    ):
        """Float32 fixtures: same clue *text* per beam document.

        The corpus has triples that flatten to one text (``<X, studied,
        at Y>`` / ``<X, studied at, Y>``); which of the two indices wins
        is decided by 3e-8 of float32 matmul jitter in either form, and
        both compose the same clue text and updated question. The exact
        index, ties included, is pinned under ``DyadicEncoder`` below.
        """
        questions = [q.text for q in hotpot.all_questions]
        config = MultiHopConfig(k_hop1=4, k_hop2=3, k_paths=8)
        (mine, paths), (reference, ref_paths) = _both_ways(
            sharded, questions, config, **request_kwargs
        )
        assert len(mine.texts) == len(questions) * config.k_hop1
        assert mine.texts == reference.texts
        for got, want in zip(paths, ref_paths):
            assert [p.doc_ids for p in got] == [p.doc_ids for p in want]
            assert [p.clue.flatten() for p in got] == [
                p.clue.flatten() for p in want
            ]
            assert [p.updated_question for p in got] == [
                p.updated_question for p in want
            ]
            assert [p.score for p in got] == pytest.approx(
                [p.score for p in want], abs=1e-5
            )

    @pytest.mark.parametrize(
        "request_kwargs",
        [{}, {"nprobe": 2}, {"precision": "int8-rescore"}],
        ids=["exact", "nprobe", "int8-rescore"],
    )
    def test_dyadic_bit_identical(self, request_kwargs):
        bundle = synthetic_bundle(seed=7, n_docs=40)
        retriever = bundle.make_retriever()
        retriever.build_shards(4, mode="centroid", quantize=True)
        (mine, paths), (reference, ref_paths) = _both_ways(
            retriever, bundle.questions, MultiHopConfig(), **request_kwargs
        )
        assert len(mine.picks) == 8 * len(bundle.questions)
        assert mine.picks == reference.picks
        assert paths == ref_paths  # dataclass equality: every float exact

    def test_duplicate_and_empty_triple_documents(self):
        first = Triple("Doc 0", "pred1", "obj1 tail1")
        other = Triple("Doc 0", "pred2", "obj2 tail2")
        store = _dyadic_store(
            [
                # the same triple three times: three equal clue scores
                ("Doc 0", [other, first, first, first]),
                ("Doc 1", []),
                ("Doc 2", [Triple("Doc 2", "pred3", "obj3 tail3")]),
            ]
        )
        encoder = DyadicEncoder()
        retriever = SingleRetriever(encoder, store)
        config = MultiHopConfig(k_hop1=3, k_hop2=2)
        # asks about ``other``, which leaves the repeated triple the novel one
        question = "which document mentions obj2 tail2 ?"
        (mine, paths), (reference, ref_paths) = _both_ways(
            retriever, [question], config
        )
        assert mine.picks == reference.picks
        assert paths == ref_paths
        beam = [r.doc_id for r in retriever.retrieve_many([question], k=3)[0]]
        by_doc = dict(zip(beam, mine.picks))
        assert by_doc[1] is None  # no triples, no clue
        scores = QuestionUpdater(encoder).score_triples(
            question, store.triples(0)
        )
        assert scores[0] < scores[1] == scores[2] == scores[3]
        # a tie goes to the first of the equal triples, as argmax does
        assert by_doc[0] == 1

    def test_cosines_are_the_updaters_own(self, retriever, encoder, store):
        """Hop 1's flat scores equal the cosines the updater would compute."""
        question = "Who founded the club?"
        ((hit,),) = retriever.retrieve_batch(
            retriever.encode_questions([question]), k=1, keep_triple_scores=True
        )
        triples = store.triples(hit.doc_id)
        np.testing.assert_allclose(
            clue_features_reference(
                encoder, question, triples, hit.triple_scores
            ),
            clue_features_reference(encoder, question, triples),
            atol=1e-6,
        )

    def test_wrong_length_cosines_rejected(self, encoder, store):
        updater = QuestionUpdater(encoder)
        triples = store.triples(store.doc_ids()[0])
        with pytest.raises(ValueError, match="one per candidate triple"):
            updater.select_clues(
                "q", [(None, triples)], [np.zeros(len(triples) + 1)]
            )
        with pytest.raises(ValueError, match="one per candidate triple"):
            updater.select_clues("q", [(None, [])], [np.zeros(2)])
        assert updater.select_clues("q", [(None, [])], [np.zeros(0)]) == [None]


def test_updater_and_retriever_must_share_the_encoder(retriever, vocab):
    from repro.encoder import EncoderConfig, MiniBertEncoder

    other = MiniBertEncoder(
        vocab, EncoderConfig(dim=24, n_layers=1, n_heads=2, max_len=32)
    )
    with pytest.raises(ValueError, match="share one encoder"):
        MultiHopRetriever(retriever, QuestionUpdater(other))
