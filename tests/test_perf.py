"""Tests for ``repro.perf``: thread safety, percentiles, reservoir."""

import threading

import pytest

from repro.perf import LatencyReservoir, PerfCounters, percentile


class TestPerfCountersThreadSafety:
    N_THREADS = 8
    N_INCREMENTS = 2000

    def test_concurrent_increments_are_exact(self):
        counters = PerfCounters()
        barrier = threading.Barrier(self.N_THREADS)

        def hammer():
            barrier.wait()  # maximize interleaving
            for _ in range(self.N_INCREMENTS):
                counters.record_encode(3)
                counters.record_scoring(2, 5, 7, 0.001)

        threads = [
            threading.Thread(target=hammer) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = self.N_THREADS * self.N_INCREMENTS
        snap = counters.snapshot()
        assert snap["encode_calls"] == total
        assert snap["texts_encoded"] == 3 * total
        assert snap["matmul_calls"] == total
        assert snap["queries"] == 2 * total
        assert snap["docs_scored"] == 5 * total
        assert snap["triples_scored"] == 7 * total
        # float accumulation is the update a lockless counter drops
        assert snap["matmul_seconds"] == pytest.approx(0.001 * total)

    def test_reset_clears_every_field(self):
        counters = PerfCounters()
        counters.record_encode(4)
        counters.record_scoring(1, 2, 3, 0.5)
        counters.reset()
        assert all(not value for value in counters.snapshot().values())

    def test_summary_reflects_snapshot(self):
        counters = PerfCounters()
        counters.record_encode(10)
        text = counters.summary()
        assert "encode calls:    1 (10 texts)" in text


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_nearest_rank_known_values(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100 sorted
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_extremes_and_single_sample(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([1.0, 2.0], 0.0) == 1.0
        assert percentile([1.0, 2.0], 100.0) == 2.0


class TestLatencyReservoir:
    def test_percentiles_over_window(self):
        reservoir = LatencyReservoir(capacity=256)
        for value in range(1, 101):
            reservoir.record(value / 1000.0)
        stats = reservoir.percentiles()
        assert stats["p50"] == pytest.approx(0.050)
        assert stats["p95"] == pytest.approx(0.095)
        assert stats["p99"] == pytest.approx(0.099)
        assert stats["max"] == pytest.approx(0.100)
        assert stats["mean"] == pytest.approx(0.0505)

    def test_ring_keeps_most_recent_when_full(self):
        reservoir = LatencyReservoir(capacity=10)
        for value in range(25):
            reservoir.record(float(value))
        assert len(reservoir) == 10
        stats = reservoir.percentiles()
        # window holds some mix of recent values, never the earliest ones
        assert stats["max"] == 24.0
        assert stats["p50"] >= 10.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)

    def test_threaded_recording_keeps_exact_count(self):
        reservoir = LatencyReservoir(capacity=4000)
        threads = [
            threading.Thread(
                target=lambda: [reservoir.record(0.001) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(reservoir) == 2000
