"""Property tests for reduceat-based segment aggregation.

`aggregate_segments` must equal the scalar reference (`reference.aggregate`
/ `matched_index`) applied segment-by-segment, for arbitrary segment layouts
— including empty segments (documents without triples) anywhere in the
corpus, score ties, and single-segment corpora.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import aggregate, matched_index

from repro.retriever.strategies import (
    EMPTY_SCORE,
    MEAN,
    ONE_FACT,
    TOP_K,
    ScoreStrategy,
    aggregate_segments,
    segment_lengths,
)

# scores drawn from a small grid to exercise exact ties; segment lengths
# include 0 so empty documents land between, before and after real ones
score_values = st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.3, 0.9, 1.0])
segment_shapes = st.lists(st.integers(0, 6), min_size=0, max_size=12)
strategy_objects = st.one_of(
    st.just(ScoreStrategy(ONE_FACT)),
    st.just(ScoreStrategy(MEAN)),
    st.integers(1, 5).map(lambda k: ScoreStrategy(TOP_K, k=k)),
)


def _naive(scores, offsets, strategy):
    """The reference: scalar aggregation per segment slice."""
    total = scores.shape[0]
    bounds = list(offsets) + [total]
    aggregated, matched = [], []
    for start, stop in zip(bounds, bounds[1:]):
        segment = scores[start:stop]
        aggregated.append(aggregate(strategy, segment))
        matched.append(matched_index(segment))
    return np.asarray(aggregated), np.asarray(matched)


@given(shapes=segment_shapes, strategy=strategy_objects, data=st.data())
@settings(max_examples=200, deadline=None)
def test_matches_scalar_aggregation(shapes, strategy, data):
    total = sum(shapes)
    scores = np.asarray(
        data.draw(
            st.lists(score_values, min_size=total, max_size=total)
        ),
        dtype=np.float64,
    )
    offsets = np.concatenate([[0], np.cumsum(shapes)])[:-1].astype(np.int64)
    aggregated, matched = aggregate_segments(scores, offsets, strategy)
    expected_agg, expected_matched = _naive(scores, offsets, strategy)
    np.testing.assert_allclose(aggregated, expected_agg, atol=1e-12)
    np.testing.assert_array_equal(matched, expected_matched)


@given(shapes=segment_shapes)
@settings(max_examples=100, deadline=None)
def test_segment_lengths_roundtrip(shapes):
    offsets = np.concatenate([[0], np.cumsum(shapes)])[:-1].astype(np.int64)
    np.testing.assert_array_equal(
        segment_lengths(offsets, sum(shapes)), shapes
    )


def test_no_segments():
    aggregated, matched = aggregate_segments(
        np.zeros(0), np.zeros(0, dtype=np.int64), ScoreStrategy(ONE_FACT)
    )
    assert aggregated.shape == (0,) and matched.shape == (0,)


def test_all_segments_empty():
    aggregated, matched = aggregate_segments(
        np.zeros(0), np.zeros(4, dtype=np.int64), ScoreStrategy(MEAN)
    )
    np.testing.assert_array_equal(aggregated, [EMPTY_SCORE] * 4)
    np.testing.assert_array_equal(matched, [-1] * 4)


def test_argmax_is_first_occurrence_on_ties():
    scores = np.array([0.5, 0.9, 0.9, 0.9, 0.1, 0.9])
    offsets = np.array([0, 4], dtype=np.int64)
    _, matched = aggregate_segments(scores, offsets, ScoreStrategy(ONE_FACT))
    np.testing.assert_array_equal(matched, [1, 1])


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown strategy"):
        aggregate_segments(
            np.array([1.0]), np.array([0]), ScoreStrategy("bogus")
        )
