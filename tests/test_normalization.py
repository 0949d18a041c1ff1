"""Regressions for the falsy-zero / normalization audit.

The static-analysis PR routed every cosine-score operand through the
shared ``l2_normalize_rows`` / ``l2_normalize_vec`` helpers and fixed the
remaining ``x or default`` falsy-zero defaults. These tests pin the
helper semantics (zero vectors survive) and the behaviours the fixed call
sites rely on.
"""

import numpy as np
import pytest
from reference import clue_features_reference

from repro.baselines.dense_base import DenseRetriever
from repro.nn.transformer import TransformerEncoder
from repro.perf import COUNTERS
from repro.pipeline.multihop import DocumentPath
from repro.pipeline.path_ranker import PathRanker
from repro.retriever.strategies import l2_normalize_rows, l2_normalize_vec
from repro.updater.updater import QuestionUpdater


class TestL2Helpers:
    def test_rows_become_unit_norm(self, rng):
        matrix = rng.normal(size=(5, 7))
        normed = l2_normalize_rows(matrix)
        assert np.allclose(np.linalg.norm(normed, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        normed = l2_normalize_rows(matrix)
        assert np.allclose(normed[0], [0.6, 0.8])
        assert np.all(normed[1] == 0.0)
        assert np.all(np.isfinite(normed))

    def test_rows_input_not_mutated(self):
        matrix = np.array([[3.0, 4.0]])
        original = matrix.copy()
        l2_normalize_rows(matrix)
        assert np.array_equal(matrix, original)

    def test_vec_unit_norm(self, rng):
        vec = rng.normal(size=9)
        assert np.isclose(np.linalg.norm(l2_normalize_vec(vec)), 1.0)

    def test_zero_vec_stays_zero(self):
        out = l2_normalize_vec(np.zeros(4))
        assert np.all(out == 0.0)
        assert np.all(np.isfinite(out))

    def test_matches_old_or_guard(self, rng):
        # the replaced idiom was `vec / (norm or 1.0)`: bitwise-identical
        # for nonzero vectors, and the zero vector maps to itself
        vec = rng.normal(size=6)
        norm = float(np.linalg.norm(vec))
        assert np.array_equal(l2_normalize_vec(vec), vec / (norm or 1.0))


class TestPerfCounterCoverage:
    """Every encoder call site outside the retriever records its encode."""

    def test_dense_refresh_records_encode(self, encoder, corpus):
        dense = DenseRetriever(encoder, corpus)
        before = COUNTERS.snapshot()
        dense.refresh_embeddings()
        assert COUNTERS.encode_calls == before["encode_calls"] + 1
        assert (
            COUNTERS.texts_encoded == before["texts_encoded"] + len(corpus)
        )
        # and the MIPS matrix rows are unit (or zero) after the refactor
        norms = np.linalg.norm(dense._doc_normed, axis=1)
        assert np.all(
            (np.isclose(norms, 1.0)) | (norms == 0.0)
        )

    def test_dense_query_encoding_records_encode(self, encoder, corpus):
        dense = DenseRetriever(encoder, corpus)
        before = COUNTERS.snapshot()
        dense.encode_queries(["Who founded the club?"])
        dense.encode_queries(["Who founded the club?", "Where is it?"])
        assert COUNTERS.encode_calls == before["encode_calls"] + 2
        assert COUNTERS.texts_encoded == before["texts_encoded"] + 3

    def test_path_ranker_features_record_encode(self, retriever, corpus):
        ranker = PathRanker(retriever)
        paths = [
            DocumentPath(
                doc_ids=(0, 1),
                titles=(corpus[0].title, corpus[1].title),
                score=0.0,
            ),
            DocumentPath(
                doc_ids=(1, 2),
                titles=(corpus[1].title, corpus[2].title),
                score=0.0,
            ),
        ]
        before = COUNTERS.texts_encoded
        scores = ranker.score_paths("Who played for the club?", paths)
        assert scores.shape == (2,)
        # one question encode plus one batch over both path texts
        assert COUNTERS.texts_encoded >= before + len(paths) + 1


class TestUpdaterCosineFeature:
    def test_cosine_column_is_bounded(self, encoder, store):
        updater = QuestionUpdater(encoder)
        question = "Who founded the club?"
        triples = store.triples(0)
        assert triples, "fixture doc 0 should have triples"
        cosines = updater._question_cosines(
            question, encoder.encode_numpy([t.flatten() for t in triples])
        )
        assert np.all(cosines <= 1.0 + 1e-9)
        assert np.all(cosines >= -1.0 - 1e-9)
        features = clue_features_reference(encoder, question, triples)
        np.testing.assert_allclose(cosines, features[:, 2], atol=1e-6)


class TestTransformerFfnDefault:
    def test_none_still_gets_default(self):
        model = TransformerEncoder(
            vocab_size=11, dim=8, n_layers=1, n_heads=2, max_len=8
        )
        assert model.layers[0].ffn_in.weight.data.shape[1] == 32
