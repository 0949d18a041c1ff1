"""Tests for ``repro.nn.infer``: the graph-free fused inference engine.

The load-bearing claims:

* fused forwards match the autograd graph path to <= 1e-6 in float64
  mode (in practice ~1e-12) across layer counts, head counts and ragged
  batches, and to float32 rounding in the default mode;
* the fused kernels (layer norm, softmax, GELU) match straightforward
  numpy references on arbitrary inputs (hypothesis);
* length-bucketed ``encode_numpy`` returns embeddings in the original
  text order regardless of batch size or input ordering;
* sessions detect weight replacement (``stale()``) and the encoder
  rebakes, so optimizer steps and ``load_weights`` are never served
  from a stale snapshot;
* downstream top-k retrieval is byte-identical whether the store was
  encoded by the graph path or the fused path, unsharded and at
  1/2/4 shards.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import encode_numpy_graph

from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.nn import Adam, InferenceSession, Module, TransformerEncoder
from repro.nn.infer import fused_gelu, fused_layer_norm, fused_softmax
from repro.nn.serialize import load_weights, save_weights
from repro.precision import F32, F64
from repro.retriever.single import SingleRetriever
from repro.text.vocab import Vocab

SENTENCES = [
    "the club was founded in 1885",
    "the band was formed in 1991 in the city",
    "the city lies on the river",
    "the striker played for the club",
    "the",
    "the historian wrote about the club and the band and the river",
]


def _model(n_layers=2, n_heads=2, dim=16, seed=3):
    return TransformerEncoder(
        vocab_size=40, dim=dim, n_layers=n_layers, n_heads=n_heads,
        max_len=12, seed=seed,
    )


def _ragged_ids(rng, rows=5, width=9, vocab_size=40):
    ids = rng.randint(1, vocab_size, size=(rows, width))
    for row in range(rows):
        ids[row, rng.randint(2, width) :] = 0  # pad tails of varying length
    return ids


# ---------------------------------------------------------------------------
# fused kernels vs references (hypothesis)
# ---------------------------------------------------------------------------

finite_rows = st.integers(min_value=1, max_value=6)
finite_cols = st.integers(min_value=2, max_value=12)


class TestFusedKernels:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=finite_rows,
        cols=finite_cols,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_layer_norm_matches_two_pass_reference(
        self, rows, cols, seed, scale
    ):
        rng = np.random.RandomState(seed)
        x = rng.randn(rows, cols) * scale
        gamma = rng.randn(cols)
        beta = rng.randn(cols)
        eps = 1e-5
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        reference = centered / np.sqrt(variance + eps) * gamma + beta
        fused = fused_layer_norm(x, gamma, beta, eps)
        np.testing.assert_allclose(fused, reference, rtol=1e-7, atol=1e-9)

    def test_layer_norm_out_buffer_and_alias_guard(self):
        x = np.random.RandomState(0).randn(3, 8)
        out = np.empty_like(x)
        result = fused_layer_norm(x, np.ones(8), np.zeros(8), 1e-5, out=out)
        assert result is out
        with pytest.raises(ValueError):
            fused_layer_norm(x, np.ones(8), np.zeros(8), 1e-5, out=x)

    def test_layer_norm_constant_rows_stay_finite(self):
        # E[x^2] - mean^2 cancels to (tiny negative) zero on constant
        # rows; the clamp keeps the output finite and beta-valued
        x = np.full((2, 6), 3.7)
        fused = fused_layer_norm(x, np.ones(6), np.zeros(6), 1e-5)
        assert np.isfinite(fused).all()
        np.testing.assert_allclose(fused, 0.0, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=finite_rows,
        cols=finite_cols,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shift=st.floats(min_value=-500.0, max_value=500.0),
    )
    def test_softmax_matches_reference_and_normalizes(
        self, rows, cols, seed, shift
    ):
        rng = np.random.RandomState(seed)
        scores = rng.randn(rows, cols) * 10.0 + shift
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        reference = exp / exp.sum(axis=-1, keepdims=True)
        fused = fused_softmax(scores.copy())
        np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(fused.sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_masked_lanes_are_exact_zero(self):
        from repro.precision import mask_bias_value

        scores = np.array([[1.0, 2.0, mask_bias_value(F64)]])
        fused = fused_softmax(scores.copy())
        assert fused[0, 2] == 0.0
        scores32 = np.array([[1.0, 2.0, mask_bias_value(F32)]], dtype=F32)
        assert fused_softmax(scores32.copy())[0, 2] == 0.0

    def test_gelu_matches_graph_formula(self):
        rng = np.random.RandomState(1)
        x = rng.randn(4, 7) * 3.0
        reference = x * (0.5 * (1.0 + _erf_ref(x / np.sqrt(2.0))))
        fused = fused_gelu(x.copy())
        np.testing.assert_array_equal(fused, reference)  # bitwise


def _erf_ref(x):
    from scipy.special import erf

    return erf(x)


# ---------------------------------------------------------------------------
# session parity vs the graph path
# ---------------------------------------------------------------------------


class TestSessionParity:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_float64_within_1e6_of_graph(self, n_layers, n_heads):
        model = _model(n_layers=n_layers, n_heads=n_heads)
        ids = _ragged_ids(np.random.RandomState(n_layers * 7 + n_heads))
        mask = (ids != 0).astype(F64)
        graph = model(ids, mask=mask).numpy()
        fused = InferenceSession(model, dtype=F64).forward(ids, mask=mask)
        assert fused.dtype == F64
        np.testing.assert_allclose(fused, graph, atol=1e-6)
        # the gate in practice is far tighter than the contract
        assert np.abs(fused - graph).max() < 1e-9

    def test_float32_within_rounding_of_graph(self):
        model = _model()
        ids = _ragged_ids(np.random.RandomState(11))
        mask = (ids != 0).astype(F64)
        graph = model(ids, mask=mask).numpy()
        fused = InferenceSession(model, dtype=F32).forward(
            ids, mask=mask.astype(F32)
        )
        assert fused.dtype == F32
        np.testing.assert_allclose(fused, graph, rtol=1e-4, atol=1e-5)

    def test_mask_defaults_to_pad_id(self):
        model = _model()
        ids = _ragged_ids(np.random.RandomState(2))
        session = InferenceSession(model, dtype=F64)
        explicit = session.forward(ids, mask=(ids != 0).astype(F64))
        np.testing.assert_array_equal(session.forward(ids), explicit)

    def test_max_len_enforced(self):
        model = _model()
        session = InferenceSession(model, dtype=F64)
        with pytest.raises(ValueError):
            session.forward(np.ones((1, model.max_len + 1), dtype=np.int64))

    def test_unknown_module_refuses_to_bake(self):
        model = _model()

        class Mystery(Module):
            pass

        model.register_module("mystery", Mystery())
        with pytest.raises(TypeError):
            InferenceSession(model, dtype=F64)

    def test_stale_after_optimizer_step_and_load(self, tmp_path):
        model = _model(n_layers=1)
        session = InferenceSession(model, dtype=F64)
        assert not session.stale()
        save_weights(model, tmp_path / "weights.npz")
        optimizer = Adam(model.parameters(), lr=0.1)
        ids = _ragged_ids(np.random.RandomState(5))
        loss = (model(ids) * model(ids)).sum()
        loss.backward()
        optimizer.step()
        assert session.stale()
        fresh = InferenceSession(model, dtype=F64)
        assert not fresh.stale()
        load_weights(model, tmp_path / "weights.npz")
        assert fresh.stale()


# ---------------------------------------------------------------------------
# encoder integration: bucketing, rebake, dtype modes
# ---------------------------------------------------------------------------


@pytest.fixture()
def bucketing_encoder():
    vocab = Vocab.from_tokens(" ".join(SENTENCES).split())
    return MiniBertEncoder(
        vocab, EncoderConfig(dim=16, n_layers=2, n_heads=2, max_len=16)
    )


class TestLengthBucketing:
    def test_results_come_back_in_input_order(self, bucketing_encoder):
        # shuffled lengths force the bucket sort to permute the batch;
        # every row must still hold its own text's embedding
        texts = sorted(SENTENCES, key=len, reverse=True)
        batched = bucketing_encoder.encode_numpy(texts, batch_size=2)
        for row, text in enumerate(texts):
            single = bucketing_encoder.encode_numpy([text])[0]
            np.testing.assert_allclose(
                batched[row], single, rtol=1e-4, atol=1e-6,
                err_msg=f"row {row} ({text!r}) not in input order",
            )

    def test_order_regression_against_reversal(self, bucketing_encoder):
        forward = bucketing_encoder.encode_numpy(SENTENCES, batch_size=2)
        backward = bucketing_encoder.encode_numpy(SENTENCES[::-1], batch_size=2)
        np.testing.assert_allclose(
            forward, backward[::-1], rtol=1e-4, atol=1e-6
        )

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 64])
    def test_bucket_boundaries_consistent(self, bucketing_encoder, batch_size):
        texts = SENTENCES * 2
        reference = bucketing_encoder.encode_numpy(texts, batch_size=64)
        bucketed = bucketing_encoder.encode_numpy(texts, batch_size=batch_size)
        np.testing.assert_allclose(bucketed, reference, atol=1e-10)

    @pytest.mark.parametrize("mode", ["float64", "float32"])
    def test_matches_graph_reference_path(self, mode):
        vocab = Vocab.from_tokens(" ".join(SENTENCES).split())
        encoder = MiniBertEncoder(
            vocab,
            EncoderConfig(dim=16, n_layers=2, n_heads=2, max_len=16),
            precision=mode,
        )
        fused = encoder.encode_numpy(SENTENCES, batch_size=3)
        graph = encode_numpy_graph(encoder, SENTENCES, batch_size=3)
        assert fused.dtype == graph.dtype
        if mode == "float64":
            np.testing.assert_allclose(fused, graph, atol=1e-6)
        else:
            np.testing.assert_allclose(fused, graph, rtol=1e-4, atol=1e-5)

    def test_session_rebakes_after_fit_idf_weight_change(
        self, bucketing_encoder
    ):
        before = bucketing_encoder.encode_numpy(SENTENCES)
        session_before = bucketing_encoder._infer_session
        bucketing_encoder.fit_idf(SENTENCES)  # pooling change, same weights
        after_idf = bucketing_encoder.encode_numpy(SENTENCES)
        assert not np.allclose(before, after_idf)  # idf reweights pooling
        parameter = bucketing_encoder.model.final_norm.gamma
        parameter.data = parameter.data * 1.5
        bucketing_encoder.encode_numpy(SENTENCES)
        assert bucketing_encoder._infer_session is not session_before

    def test_empty_input(self, bucketing_encoder):
        out = bucketing_encoder.encode_numpy([])
        assert out.shape == (0, 16)
        assert out.dtype == bucketing_encoder.precision.dtype

    def test_counts_tokens(self, bucketing_encoder):
        from repro.perf import COUNTERS

        before = COUNTERS.encoder_throughput()
        bucketing_encoder.encode_numpy(SENTENCES)
        after = COUNTERS.encoder_throughput()
        expected = sum(
            len(bucketing_encoder.text_to_ids(t)) for t in SENTENCES
        )
        assert after["tokens"] - before["tokens"] == expected
        assert after["seconds"] >= before["seconds"]


# ---------------------------------------------------------------------------
# downstream byte-identity: graph-encoded vs fused-encoded stores
# ---------------------------------------------------------------------------

QUESTIONS = [
    "Where was the first person born ?",
    "Which club does the historian play for ?",
    "What is linked to the novelist ?",
]


def _twin_encoders(vocab, store, corpus):
    """Two identically-initialized encoders (same seed, same idf fit)."""
    pair = []
    for _ in range(2):
        encoder = MiniBertEncoder(
            vocab, EncoderConfig(dim=24, n_layers=1, n_heads=2, max_len=32)
        )
        encoder.fit_idf([store.field_text(d.doc_id) for d in corpus])
        pair.append(encoder)
    return pair


class TestDownstreamTopkParity:
    @pytest.mark.parametrize("n_shards", [0, 1, 2, 4])
    def test_topk_identical_graph_vs_fused(
        self, vocab, store, corpus, n_shards
    ):
        graph_encoder, fused_encoder = _twin_encoders(vocab, store, corpus)
        # force the reference path on one retriever's encoder
        graph_encoder.encode_numpy = partial(encode_numpy_graph, graph_encoder)
        graph_retriever = SingleRetriever(graph_encoder, store)
        graph_retriever.refresh_embeddings()
        fused_retriever = SingleRetriever(fused_encoder, store)
        fused_retriever.refresh_embeddings()
        if n_shards:
            graph_retriever.build_shards(n_shards, mode="range")
            fused_retriever.build_shards(n_shards, mode="range")
        for question in QUESTIONS:
            graph_docs = graph_retriever.retrieve_many([question], k=5)[0]
            fused_docs = fused_retriever.retrieve_many([question], k=5)[0]
            assert [d.doc_id for d in graph_docs] == [
                d.doc_id for d in fused_docs
            ]
            assert [str(d.matched_triple) for d in graph_docs] == [
                str(d.matched_triple) for d in fused_docs
            ]
