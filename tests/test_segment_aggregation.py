"""Property tests for reduceat-based block aggregation.

`aggregate_segments` over a ``(queries, flat triples)`` block must equal
the scalar reference (`reference.aggregate`) applied row by row, segment
by segment, and `QueryShardScores.explain` the scalar `matched_index` of
the documents it is asked about — for arbitrary segment layouts,
including empty segments (documents without triples) anywhere in the
corpus, score ties, single-segment corpora, a shard of only empty
documents and a block without rows.
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
    segment_layout,
)
from repro.shard import QueryShardScores, Shard

# scores drawn from a small grid to exercise exact ties; segment lengths
# include 0 so empty documents land between, before and after real ones
score_values = st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.3, 0.9, 1.0])
# eighths: every partial sum is exact in float32 and float64, so a sum is
# one number whatever order it is taken in and "bitwise" is well defined
# for the mean and top-k strategies too
dyadic_values = st.sampled_from(
    [-1.0, -0.625, -0.25, 0.0, 0.125, 0.25, 0.875, 1.0]
)
segment_shapes = st.lists(st.integers(0, 6), min_size=0, max_size=12)
strategy_objects = st.one_of(
    st.just(ScoreStrategy(ONE_FACT)),
    st.just(ScoreStrategy(MEAN)),
    st.integers(1, 5).map(lambda k: ScoreStrategy(TOP_K, k=k)),
)


def _offsets(shapes):
    return np.concatenate([[0], np.cumsum(shapes)])[:-1].astype(np.int64)


def _shard(shapes):
    """A shard with this segment layout (its rows are never scored)."""
    return Shard(
        shard_id=0,
        doc_ids=np.arange(len(shapes), dtype=np.int64),
        offsets=_offsets(shapes),
        matrix=np.zeros((sum(shapes), 1)),
        centroid=np.zeros(1),
    )


def _aggregated_and_matched(scores, shapes, strategy):
    """What the system reports for one flat score row: every document's
    score, and the explaining triple of every document asked about."""
    shard = _shard(shapes)
    aggregated = aggregate_segments(scores, shard.segments, strategy)
    explained = QueryShardScores([(shard, scores, aggregated)]).explain(
        range(len(shapes))
    )
    return aggregated, [local for local, _ in explained]


def _naive(scores, shapes, strategy):
    """The reference: scalar aggregation per segment slice, on the
    float64 copy the system accumulates in."""
    scores = np.asarray(scores, dtype=np.float64)
    bounds = np.concatenate([[0], np.cumsum(shapes)]).astype(int)
    aggregated, matched = [], []
    for start, stop in zip(bounds, bounds[1:]):
        segment = scores[start:stop]
        aggregated.append(aggregate(strategy, segment))
        matched.append(matched_index(segment))
    return np.asarray(aggregated, dtype=np.float64), matched


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
    aggregated, matched = _aggregated_and_matched(scores, shapes, strategy)
    expected_agg, expected_matched = _naive(scores, shapes, strategy)
    np.testing.assert_allclose(aggregated, expected_agg, atol=1e-12)
    assert matched == expected_matched


@given(
    shapes=segment_shapes,
    empties=st.sets(st.sampled_from(["first", "middle", "last"])),
    n_rows=st.integers(0, 4),
    strategy=strategy_objects,
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_block_equals_scalar_reference_bitwise(
    shapes, empties, n_rows, strategy, dtype, data
):
    """Every row of a block, every strategy, both store dtypes: the same
    bits as the scalar reference. ``empties`` forces a triple-less
    document to the front, the middle and the end of the shard."""
    shapes = list(shapes)
    if "first" in empties:
        shapes.insert(0, 0)
    if "middle" in empties:
        shapes.insert(len(shapes) // 2, 0)
    if "last" in empties:
        shapes.append(0)
    total = sum(shapes)
    block = np.asarray(
        data.draw(
            st.lists(
                st.lists(dyadic_values, min_size=total, max_size=total),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=dtype,
    ).reshape(n_rows, total)
    segments = segment_layout(_offsets(shapes), total)
    aggregated = aggregate_segments(block, segments, strategy)
    assert aggregated.shape == (n_rows, len(shapes))
    assert aggregated.dtype == np.float64
    for row, got in zip(block, aggregated):
        expected, _ = _naive(row, shapes, strategy)
        assert got.tobytes() == expected.tobytes()
        # a 1-D score vector is a block of one row
        alone = aggregate_segments(row, segments, strategy)
        assert alone.shape == (len(shapes),)
        assert alone.tobytes() == got.tobytes()


@given(shapes=segment_shapes)
@settings(max_examples=100, deadline=None)
def test_segment_lengths_roundtrip(shapes):
    segments = segment_layout(_offsets(shapes), sum(shapes))
    np.testing.assert_array_equal(segments.lengths, shapes)
    # the reduction runs over the non-empty segments' starts only
    np.testing.assert_array_equal(
        np.arange(len(shapes))[segments.nonempty], np.nonzero(shapes)[0]
    )
    np.testing.assert_array_equal(
        segments.starts, _offsets(shapes)[np.nonzero(shapes)[0]]
    )


def test_no_segments():
    aggregated, matched = _aggregated_and_matched(
        np.zeros(0), [], ScoreStrategy(ONE_FACT)
    )
    assert aggregated.shape == (0,) and matched == []


def test_all_segments_empty():
    """A shard of triple-less documents: no reduction has anything to
    reduce, every document of every row scores ``EMPTY_SCORE`` — for a
    block of no, one and several rows."""
    segments = segment_layout(np.zeros(4, dtype=np.int64), 0)
    for n_rows in (0, 1, 3):
        for name in (ONE_FACT, MEAN, TOP_K):
            aggregated = aggregate_segments(
                np.zeros((n_rows, 0)), segments, ScoreStrategy(name)
            )
            np.testing.assert_array_equal(
                aggregated, np.full((n_rows, 4), EMPTY_SCORE)
            )
    _, matched = _aggregated_and_matched(
        np.zeros(0), [0, 0, 0, 0], ScoreStrategy(MEAN)
    )
    assert matched == [-1] * 4


def test_argmax_is_first_occurrence_on_ties():
    scores = np.array([0.5, 0.9, 0.9, 0.9, 0.1, 0.9])
    _, matched = _aggregated_and_matched(
        scores, [4, 2], ScoreStrategy(ONE_FACT)
    )
    assert matched == [1, 1]


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown strategy"):
        aggregate_segments(
            np.array([1.0]),
            segment_layout(np.array([0]), 1),
            ScoreStrategy("bogus"),
        )
