"""Tests for ``repro.precision``: policy, quantization bounds, parity.

The load-bearing claims of the dtype-policy refactor:

* the half-level int8 scheme reconstructs every element within
  ``scale / 255`` (property-tested over adversarial matrices);
* quantized-rescore recall@k is **monotone non-decreasing** in the
  rescore width, because survivors form a prefix of the coarse total
  order;
* float32 retrieval returns top-k **identical** to float64 on the test
  worlds, at 1/2/4 shards (the gate that lets float32 be the default);
* pre-dtype (version-1) embedding stores still load, as float64, via
  the explicit legacy path;
* a quantized sidecar round-trips byte-identically to an in-memory
  ``plan.quantize()``, so persisted and rebuilt plans score the same.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ingest.embedding_store import EmbeddingStore
from repro.precision import (
    ACCUM_DTYPE,
    F32,
    F64,
    Precision,
    PrecisionError,
    coarse_scores,
    dequantize_rows,
    parse_key,
    quantize_rows,
    resolve,
)
from repro.retriever.single import SingleRetriever
from repro.retriever.strategies import ScoreStrategy, l2_normalize_rows
from repro.shard import (
    ShardPlan,
    recall_at_k,
    topk_doc_order,
)

# ---------------------------------------------------------------------------
# the Precision policy object
# ---------------------------------------------------------------------------


class TestPrecisionPolicy:
    def test_defaults_to_float32(self):
        assert Precision().mode == "float32"
        assert Precision().dtype == F32

    def test_float64_mode_keeps_f64_matrices(self):
        assert Precision(mode="float64").dtype == F64

    def test_int8_rescore_holds_float32_rows(self):
        policy = Precision(mode="int8-rescore", rescore_width=32)
        assert policy.dtype == F32
        assert policy.quantized

    def test_unknown_mode_rejected(self):
        with pytest.raises(PrecisionError):
            Precision(mode="float16")

    def test_nonpositive_rescore_width_rejected(self):
        with pytest.raises(PrecisionError):
            Precision(mode="int8-rescore", rescore_width=0)

    def test_resolve_accepts_none_string_and_policy(self):
        assert resolve(None) == Precision()
        assert resolve("float64").mode == "float64"
        policy = Precision(mode="int8-rescore", rescore_width=128)
        assert resolve(policy) is policy

    def test_resolve_accepts_key_strings(self):
        # the round-trip the serving layer depends on: a batch/cache
        # key ("mode:width") resolves back to policy
        assert resolve("int8-rescore:64") == Precision(
            mode="int8-rescore", rescore_width=64
        )

    @pytest.mark.parametrize(
        "policy",
        [
            Precision(),
            Precision(mode="float64"),
            Precision(mode="int8-rescore", rescore_width=37),
        ],
    )
    def test_key_round_trips_through_parse_key(self, policy):
        assert parse_key(policy.key()) == policy

    def test_key_separates_rescore_widths(self):
        narrow = Precision(mode="int8-rescore", rescore_width=16)
        wide = Precision(mode="int8-rescore", rescore_width=64)
        assert narrow.key() != wide.key()

    def test_malformed_key_rejected(self):
        with pytest.raises(PrecisionError):
            parse_key("int8-rescore:lots")


# ---------------------------------------------------------------------------
# int8 round-trip error bound (property)
# ---------------------------------------------------------------------------

_MATRICES = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=16),
    ),
    elements=st.floats(
        min_value=-100.0,
        max_value=100.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)


class TestQuantizationBound:
    @given(matrix=_MATRICES)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_error_within_half_level(self, matrix):
        q, scales = quantize_rows(matrix)
        restored = dequantize_rows(q, scales)
        assert q.dtype == np.int8
        assert scales.dtype == F32
        # per-element bound: scale/255 (interior rounding and the
        # clipped |q|=127 boundary both land within half a level), plus
        # a few float32 ulps of the scale for the dequant arithmetic
        scale64 = scales.astype(np.float64)[:, None]
        bound = scale64 * (1.0 / 255.0 + 4e-6) + 1e-12
        assert np.all(np.abs(restored - matrix) <= bound)

    @given(matrix=_MATRICES)
    @settings(max_examples=100, deadline=None)
    def test_quantization_is_deterministic(self, matrix):
        q1, s1 = quantize_rows(matrix)
        q2, s2 = quantize_rows(matrix)
        assert np.array_equal(q1, q2)
        assert np.array_equal(s1, s2)

    def test_zero_rows_quantize_to_zero(self):
        matrix = np.zeros((3, 4))
        q, scales = quantize_rows(matrix)
        assert not q.any()
        assert not scales.any()
        assert not dequantize_rows(q, scales).any()

    def test_coarse_scores_match_dequantized_matmul(self):
        rng = np.random.RandomState(3)
        matrix = rng.randn(100, 8)
        queries = rng.randn(5, 8)
        q, scales = quantize_rows(matrix)
        chunked = coarse_scores(q, scales, queries, chunk_rows=7)
        reference = dequantize_rows(q, scales) @ queries.astype(F32).T
        assert chunked.dtype == F32
        np.testing.assert_allclose(chunked, reference, rtol=1e-5)


# ---------------------------------------------------------------------------
# rescore-width monotonicity + quantized end-to-end
# ---------------------------------------------------------------------------


def _clustered_world(n_docs=600, dim=16, n_centers=12, seed=11):
    """(normalized docs, normalized queries) around latent centers."""
    rng = np.random.RandomState(seed)
    centers = l2_normalize_rows(rng.randn(n_centers, dim))
    labels = rng.randint(n_centers, size=n_docs)
    docs = l2_normalize_rows(centers[labels] + 0.2 * rng.randn(n_docs, dim))
    anchors = rng.randint(n_docs, size=8)
    queries = l2_normalize_rows(docs[anchors] + 0.1 * rng.randn(8, dim))
    return docs, queries


class TestRescoreWidth:
    @pytest.fixture(scope="class")
    def quant_world(self):
        docs, queries = _clustered_world()
        n_docs = docs.shape[0]
        doc_ids = np.arange(n_docs, dtype=np.int64)
        offsets = np.arange(n_docs, dtype=np.int64)
        plan = ShardPlan.build(
            docs, doc_ids, offsets, 4, mode="range", quantize=True
        )
        exact = ShardPlan.build(docs, doc_ids, offsets, 1, mode="range")
        return plan, exact, queries

    def _top_ids(self, result, k):
        order = topk_doc_order(result.scores, result.doc_ids, k)
        return result.doc_ids[order]

    @given(width_seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_recall_monotone_in_rescore_width(self, quant_world, width_seed):
        plan, exact, queries = quant_world
        strategy = ScoreStrategy()
        k = 10
        rng = np.random.RandomState(width_seed)
        narrow, wide = sorted(rng.randint(k, 200, size=2))
        exact_ids = [
            self._top_ids(r, k) for r in exact.search(queries, strategy)
        ]
        recalls = []
        for width in (narrow, wide):
            results = plan.search_quantized(queries, strategy, width)
            recalls.append(
                np.mean(
                    [
                        recall_at_k(self._top_ids(r, k), e)
                        for r, e in zip(results, exact_ids)
                    ]
                )
            )
        # survivors form a prefix of the coarse total order, so widening
        # the rescore can only add candidates — never lose one
        assert recalls[1] >= recalls[0]

    def test_full_width_rescore_matches_exact_topk(self, quant_world):
        plan, exact, queries = quant_world
        strategy = ScoreStrategy()
        k = 10
        full = plan.total_docs
        for quantized, reference in zip(
            plan.search_quantized(queries, strategy, full),
            exact.search(queries, strategy),
        ):
            # every doc survives into the exact rescore, so the final
            # ranking is the exact ranking
            assert np.array_equal(
                self._top_ids(quantized, k), self._top_ids(reference, k)
            )

    def test_search_quantized_requires_quantized_plan(self, quant_world):
        _, exact, queries = quant_world
        with pytest.raises(ValueError, match="no int8 copy"):
            exact.search_quantized(queries, ScoreStrategy(), 10)


# ---------------------------------------------------------------------------
# float32 vs float64 top-k parity on the test world
# ---------------------------------------------------------------------------


class TestFloatParity:
    QUESTIONS = [
        "Where was the first person born ?",
        "Which club does the historian play for ?",
        "What is linked to the novelist ?",
    ]

    @pytest.fixture(scope="class")
    def pair(self, encoder, store):
        exact = SingleRetriever(encoder, store, precision="float64")
        exact.refresh_embeddings()
        fast = SingleRetriever(encoder, store, precision="float32")
        fast.refresh_embeddings()
        return exact, fast

    def test_matrix_dtypes_follow_policy(self, pair):
        exact, fast = pair
        assert exact.export_embeddings().matrix.dtype == F64
        assert fast.export_embeddings().matrix.dtype == F32

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_topk_identical_across_dtypes(self, pair, n_shards):
        exact, fast = pair
        exact.build_shards(n_shards)
        fast.build_shards(n_shards)
        for question in self.QUESTIONS:
            ids64 = [r.doc_id for r in exact.retrieve(question, k=5)]
            ids32 = [r.doc_id for r in fast.retrieve(question, k=5)]
            assert ids64 == ids32

    def test_exact_mode_mismatch_rejected(self, pair):
        _, fast = pair
        vec = fast.encode_question(self.QUESTIONS[0])
        with pytest.raises(ValueError, match="float32"):
            fast.retrieve_batch(vec, k=3, precision="float64")

    def test_quantized_request_served_by_float32_retriever(
        self, encoder, store
    ):
        retriever = SingleRetriever(encoder, store, precision="float32")
        retriever.refresh_embeddings()
        retriever.build_shards(2)
        question = self.QUESTIONS[0]
        exact_ids = [r.doc_id for r in retriever.retrieve(question, k=5)]
        wide = Precision(
            mode="int8-rescore", rescore_width=len(retriever.store)
        )
        quant_ids = [
            r.doc_id
            for r in retriever.retrieve(question, k=5, precision=wide)
        ]
        # at full rescore width the quantized cascade reproduces the
        # exact float ranking
        assert quant_ids == exact_ids

    def test_quantized_request_needs_a_shard_plan(self, encoder, store):
        retriever = SingleRetriever(encoder, store, precision="float32")
        retriever.refresh_embeddings()
        vec = retriever.encode_question(self.QUESTIONS[0])
        with pytest.raises(ValueError, match="shard plan"):
            retriever.retrieve_batch(vec, k=3, precision="int8-rescore")

    def test_retriever_inherits_encoder_precision(self, vocab, store):
        from repro.encoder import EncoderConfig, MiniBertEncoder

        enc = MiniBertEncoder(
            vocab,
            EncoderConfig(dim=8, n_layers=1, n_heads=2, max_len=16),
            precision="float64",
        )
        retriever = SingleRetriever(enc, store)
        assert retriever.precision.mode == "float64"


# ---------------------------------------------------------------------------
# store persistence: legacy v1, dtype round-trip, quantized sidecars
# ---------------------------------------------------------------------------


def _store_of(matrix):
    n_docs = matrix.shape[0]
    return EmbeddingStore(
        matrix=matrix,
        doc_ids=list(range(n_docs)),
        offsets=list(range(n_docs)),
        row_hashes={d: f"h{d}" for d in range(n_docs)},
        encoder_fingerprint="enc-fp",
    )


class TestStoreDtypes:
    @pytest.mark.parametrize("dtype", [F32, F64])
    def test_save_open_round_trips_dtype(self, tmp_path, dtype):
        matrix = np.arange(12, dtype=dtype).reshape(4, 3)
        _store_of(matrix).save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["dtype"] == dtype.name
        reopened = EmbeddingStore.open(tmp_path, mmap=False)
        assert reopened.matrix.dtype == dtype
        np.testing.assert_array_equal(reopened.matrix, matrix)

    def test_attach_rejects_dtype_mismatched_store(
        self, tmp_path, encoder, store
    ):
        exact = SingleRetriever(encoder, store, precision="float64")
        exact.refresh_embeddings()
        exact.export_embeddings().save(tmp_path)
        fast = SingleRetriever(encoder, store, precision="float32")
        # a float64 generation cannot warm-start a float32 retriever;
        # attach reports zero reusable rows so the caller re-encodes
        assert fast.attach_embeddings(EmbeddingStore.open(tmp_path)) == 0


# ---------------------------------------------------------------------------
# aggregation accumulates in float64 regardless of store dtype
# ---------------------------------------------------------------------------


class TestAccumulatorDtype:
    def test_float32_scores_aggregate_in_float64(self):
        from repro.retriever.strategies import (
            aggregate_segments,
            segment_layout,
        )

        flat = np.array([0.5, 0.25, 0.75, 1.0], dtype=F32)
        segments = segment_layout(np.array([0, 2], dtype=np.int64), 4)
        aggregated = aggregate_segments(flat, segments, ScoreStrategy())
        assert aggregated.dtype == ACCUM_DTYPE
