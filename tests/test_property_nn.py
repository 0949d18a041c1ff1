"""Property-based tests for autograd and index invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import leaf

from repro.index import bm25
from repro.index.analyzer import analyze
from repro.index.postings import Field
from repro.nn.tensor import Tensor

small_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False),
)


class TestTensorProperties:
    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_sum_to_one(self, data):
        out = Tensor(data).softmax(axis=-1).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_sum_grad_is_ones(self, data):
        x = leaf(data)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(data))

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_add_commutative(self, data):
        a = Tensor(data)
        b = Tensor(data * 2)
        np.testing.assert_allclose((a + b).numpy(), (b + a).numpy())

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_max_le_sum_of_abs(self, data):
        x = Tensor(data)
        assert (x.max(axis=-1).numpy() <= np.abs(data).sum(axis=-1) + 1e-12).all()

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_reshape_roundtrip(self, data):
        x = leaf(data)
        out = x.reshape(-1).reshape(data.shape)
        np.testing.assert_array_equal(out.numpy(), data)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(data))


documents = st.lists(
    st.lists(
        st.sampled_from("alpha beta gamma delta club band city".split()),
        min_size=1,
        max_size=10,
    ),
    min_size=1,
    max_size=8,
)


class TestBM25Properties:
    @given(documents, st.sampled_from("alpha beta gamma".split()))
    @settings(max_examples=40, deadline=None)
    def test_scores_nonnegative(self, docs, term):
        field = Field("text")
        for doc_id, tokens in enumerate(docs):
            field.add(doc_id, tokens)
        scores = bm25.scores(field, [term])
        assert all(score >= 0 for score in scores.values())

    @given(documents)
    @settings(max_examples=40, deadline=None)
    def test_only_matching_docs_scored(self, docs):
        field = Field("text")
        for doc_id, tokens in enumerate(docs):
            field.add(doc_id, tokens)
        scores = bm25.scores(field, ["alpha"])
        for doc_id in scores:
            assert "alpha" in docs[doc_id]

    @given(documents, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_top_k_sorted_and_bounded(self, docs, k):
        field = Field("text")
        for doc_id, tokens in enumerate(docs):
            field.add(doc_id, tokens)
        ranked = bm25.top_k(field, ["alpha", "club"], k)
        assert len(ranked) <= k
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)


class TestAnalyzerProperties:
    @given(st.text(max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_analyze_never_crashes(self, text):
        terms = analyze(text)
        assert all(isinstance(t, str) and t for t in terms)
