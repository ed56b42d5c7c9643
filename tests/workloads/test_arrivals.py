"""Arrival streams and their interaction with the QED queue."""

import pytest
from hypothesis import given, strategies as st

from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue
from repro.workloads.arrivals import (
    Arrival,
    RateSchedule,
    bursty_arrivals,
    diurnal_schedule,
    merge_arrivals,
    piecewise_schedule,
    poisson_arrivals,
    ramp_arrivals,
    ramp_schedule,
    rate_schedule_arrivals,
    uniform_arrivals,
)

QUERIES = [f"SELECT {i} FROM t WHERE a = {i}" for i in range(20)]


def drain_through_queue(arrivals, queue) -> list:
    """Feed arrivals into ``queue``; return the dispatched batches (a
    trailing partial batch stays queued, as in a live system)."""
    batches = [queue.submit(a.sql, a.time_s, i)
               for i, a in enumerate(arrivals)]
    return [batch for batch in batches if batch is not None]


class TestStreams:
    def test_poisson_monotone_and_deterministic(self):
        a = poisson_arrivals(QUERIES, 2.0, seed=5)
        b = poisson_arrivals(QUERIES, 2.0, seed=5)
        times = [x.time_s for x in a]
        assert times == sorted(times)
        assert [x.time_s for x in b] == times

    def test_poisson_mean_roughly_right(self):
        arrivals = poisson_arrivals(QUERIES * 50, 2.0, seed=1)
        span = arrivals[-1].time_s - arrivals[0].time_s
        mean = span / (len(arrivals) - 1)
        assert mean == pytest.approx(2.0, rel=0.2)

    def test_uniform_spacing(self):
        arrivals = uniform_arrivals(QUERIES, 3.0, start_s=1.0)
        gaps = [
            b.time_s - a.time_s
            for a, b in zip(arrivals, arrivals[1:])
        ]
        assert all(g == pytest.approx(3.0) for g in gaps)
        assert arrivals[0].time_s == pytest.approx(4.0)

    def test_bursty_shape(self):
        arrivals = bursty_arrivals(QUERIES, burst_size=5,
                                   burst_gap_s=100.0)
        gaps = [
            b.time_s - a.time_s
            for a, b in zip(arrivals, arrivals[1:])
        ]
        big = [g for g in gaps if g > 1.0]
        assert len(big) == 3  # 20 queries / bursts of 5 -> 3 gaps

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(QUERIES, 0.0)
        with pytest.raises(ValueError):
            uniform_arrivals(QUERIES, -1.0)
        with pytest.raises(ValueError):
            bursty_arrivals(QUERIES, 0, 1.0)


class TestMergeArrivals:
    def test_time_ordered_merge(self):
        a = poisson_arrivals(QUERIES[:10], 2.0, seed=1)
        b = poisson_arrivals(QUERIES[10:], 3.0, seed=2)
        merged = merge_arrivals(a, b)
        times = [x.time_s for x in merged]
        assert times == sorted(times)
        assert len(merged) == len(a) + len(b)
        assert sorted(x.sql for x in merged) == sorted(
            x.sql for x in a + b
        )

    def test_stable_for_ties(self):
        a = [Arrival("a1", 1.0), Arrival("a2", 2.0)]
        b = [Arrival("b1", 1.0), Arrival("b2", 2.0)]
        merged = merge_arrivals(a, b)
        assert [x.sql for x in merged] == ["a1", "b1", "a2", "b2"]
        # Argument order decides the tie, reproducibly.
        swapped = merge_arrivals(b, a)
        assert [x.sql for x in swapped] == ["b1", "a1", "b2", "a2"]

    def test_empty_and_single_stream(self):
        a = uniform_arrivals(QUERIES[:3], 1.0)
        assert merge_arrivals(a) == a
        assert merge_arrivals([], a, []) == a
        assert merge_arrivals() == []

    def test_unsorted_stream_rejected(self):
        with pytest.raises(ValueError):
            merge_arrivals([Arrival("x", 2.0), Arrival("y", 1.0)])

    @given(seeds=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=4,
        unique=True,
    ))
    def test_merge_preserves_within_stream_order(self, seeds):
        streams = [
            poisson_arrivals(QUERIES[:5], 1.0, seed=s) for s in seeds
        ]
        merged = merge_arrivals(*streams)
        for stream in streams:
            positions = [merged.index(x) for x in stream]
            assert positions == sorted(positions)


class TestDrainThroughQueue:
    def test_threshold_batches(self):
        queue = QueryQueue(BatchPolicy(threshold=8))
        batches = drain_through_queue(
            uniform_arrivals(QUERIES, 1.0), queue
        )
        assert [b.size for b in batches] == [8, 8]
        assert len(queue) == 4  # trailing partial batch stays queued

    def test_bursts_dispatch_on_arrival(self):
        queue = QueryQueue(BatchPolicy(threshold=5))
        batches = drain_through_queue(
            bursty_arrivals(QUERIES, burst_size=5, burst_gap_s=60.0),
            queue,
        )
        assert len(batches) == 4
        # each batch completes within its burst window
        for batch in batches:
            assert max(q.wait_at(batch.dispatch_s)
                       for q in batch.queries) < 1.0

    @given(
        threshold=st.integers(min_value=1, max_value=10),
        mean=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_every_dispatched_query_arrived_before_dispatch(
        self, threshold, mean
    ):
        queue = QueryQueue(BatchPolicy(threshold=threshold))
        arrivals = poisson_arrivals(QUERIES, mean, seed=2)
        batches = drain_through_queue(arrivals, queue)
        for batch in batches:
            for queued in batch.queries:
                assert queued.arrival_s <= batch.dispatch_s


class TestLoadProfiles:
    """Time-varying load profiles (ISSUE 4 tentpole)."""

    def _diurnal(self):
        return diurnal_schedule(base_rate=2.0, peak_rate=20.0,
                                period_s=100.0, horizon_s=200.0)

    def test_diurnal_curve_shape(self):
        schedule = self._diurnal()
        assert schedule.rate_at(0.0) == pytest.approx(2.0)
        assert schedule.rate_at(50.0) == pytest.approx(20.0)
        assert schedule.rate_at(100.0) == pytest.approx(2.0)
        assert schedule.peak_rate == 20.0

    def test_ramp_curve_shape(self):
        schedule = ramp_schedule(1.0, 9.0, horizon_s=100.0)
        assert schedule.rate_at(0.0) == pytest.approx(1.0)
        assert schedule.rate_at(50.0) == pytest.approx(5.0)
        assert schedule.rate_at(100.0) == pytest.approx(9.0)
        assert schedule.expected_count() == pytest.approx(500.0, rel=1e-3)

    def test_piecewise_phases(self):
        schedule = piecewise_schedule([(10.0, 1.0), (20.0, 5.0),
                                       (10.0, 2.0)])
        assert schedule.horizon_s == 40.0
        assert schedule.rate_at(5.0) == 1.0
        assert schedule.rate_at(15.0) == 5.0
        assert schedule.rate_at(35.0) == 2.0
        assert schedule.expected_count() == pytest.approx(
            10 + 100 + 20, rel=1e-2
        )

    def test_rate_schedule_integral_matches_count(self):
        """The thinning generator's arrival count concentrates around
        the rate integral (Poisson: sigma = sqrt(N))."""
        schedule = self._diurnal()
        expected = schedule.expected_count()  # 2200
        counts = [
            len(rate_schedule_arrivals(QUERIES, schedule, seed=s))
            for s in range(5)
        ]
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_seeded_determinism(self):
        schedule = self._diurnal()
        a = rate_schedule_arrivals(QUERIES, schedule, seed=3)
        b = rate_schedule_arrivals(QUERIES, schedule, seed=3)
        c = rate_schedule_arrivals(QUERIES, schedule, seed=4)
        assert a == b
        assert a != c

    def test_sorted_and_start_offset(self):
        for stream in (
            ramp_arrivals(QUERIES, 2.0, 20.0, 100.0, start_s=7.0),
            rate_schedule_arrivals(QUERIES, self._diurnal(),
                                   start_s=7.0),
        ):
            times = [a.time_s for a in stream]
            assert times == sorted(times)
            assert all(t >= 7.0 for t in times)
            assert all(t <= 7.0 + 200.0 for t in times)

    def test_queries_cycle_in_order(self):
        stream = ramp_arrivals(QUERIES[:3], 5.0, 5.0, horizon_s=10.0,
                               seed=1)
        expected = [QUERIES[i % 3] for i in range(len(stream))]
        assert [a.sql for a in stream] == expected

    def test_merge_compatible(self):
        merged = merge_arrivals(
            rate_schedule_arrivals(
                QUERIES[:5], diurnal_schedule(1.0, 5.0, 50.0, 100.0),
                seed=1,
            ),
            ramp_arrivals(QUERIES[5:10], 1.0, 5.0, 100.0, seed=2),
            poisson_arrivals(QUERIES[10:], 10.0, seed=3),
        )
        times = [a.time_s for a in merged]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_schedule(5.0, 2.0, 100.0, 100.0)  # base > peak
        with pytest.raises(ValueError):
            diurnal_schedule(1.0, 2.0, 0.0, 100.0)
        with pytest.raises(ValueError):
            ramp_schedule(0.0, 0.0, 100.0)
        with pytest.raises(ValueError):
            ramp_schedule(1.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            piecewise_schedule([])
        with pytest.raises(ValueError):
            piecewise_schedule([(0.0, 1.0)])
        with pytest.raises(ValueError):
            RateSchedule(rate=lambda t: 1.0, peak_rate=0.0,
                         horizon_s=1.0)


class TestEmptyStreamNormalization:
    """All generators accept an empty queries list uniformly and
    return sorted, start-offset-respecting streams (ISSUE 4 bugfix)."""

    def test_every_generator_returns_empty_stream(self):
        schedule = ramp_schedule(1.0, 2.0, 10.0)
        assert poisson_arrivals([], 1.0) == []
        assert uniform_arrivals([], 1.0) == []
        assert bursty_arrivals([], 3, 1.0) == []
        assert rate_schedule_arrivals([], schedule) == []
        assert ramp_arrivals([], 1.0, 2.0, 10.0) == []

    def test_empty_streams_merge(self):
        assert merge_arrivals([], [], []) == []

    def test_parameter_validation_still_fires_on_empty(self):
        with pytest.raises(ValueError):
            poisson_arrivals([], 0.0)
        with pytest.raises(ValueError):
            uniform_arrivals([], -1.0)
        with pytest.raises(ValueError):
            bursty_arrivals([], 0, 1.0)

    def test_bursty_respects_start_offset(self):
        stream = bursty_arrivals(QUERIES, 4, 10.0, start_s=3.0)
        assert all(a.time_s >= 3.0 for a in stream)
        times = [a.time_s for a in stream]
        assert times == sorted(times)
