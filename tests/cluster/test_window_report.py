"""The one-pass binned ``window_report`` against the per-window scan it
replaced (``window_oracle.py``): <= 1e-9 on every field of every
window, for columnar and per-arrival-loop measurements, plus the edge
cases the scan's window arithmetic was written around."""

import dataclasses
import math
import re

import pytest

from repro.cluster import (
    ClusterSimulator,
    DynamicConsolidateRouter,
    MasterQueue,
    PowerCapRouter,
    RetryPolicy,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.cli import main
from repro.cluster.measure import (
    ClusterMeasurement,
    NodeUsage,
    QueryResponse,
    ShedQuery,
    zero_measurement,
)
from repro.core.qed.policy import BatchPolicy
from repro.measurement.ablations import fault_plan
from repro.obs import MetricsRegistry
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload
from window_oracle import busy_windows, response_columns, window_report_scan

REL = 1e-9


def _stream(count=120, distinct=10, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _dynamic():
    return DynamicConsolidateRouter(
        max_backlog_s=1.5, target_utilization=0.5
    )


def assert_matches_scan(m: ClusterMeasurement, window_s: float) -> list:
    binned = m.window_report(window_s)
    scanned = window_report_scan(m, window_s)
    assert len(binned) == len(scanned)
    for k, (got, want) in enumerate(zip(binned, scanned)):
        for field in dataclasses.fields(want):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if isinstance(w, int):
                assert g == w and isinstance(g, int), (k, field.name)
            else:
                assert isinstance(g, float), (k, field.name)
                assert g == pytest.approx(w, rel=REL, abs=1e-12), (
                    k, field.name
                )
    return binned


def _window_sizes(m: ClusterMeasurement) -> list[float]:
    h = m.horizon_s
    return [h / 40.0, h / 7.3, h / 2.5, h, 3.0 * h, 0.25, 30.0]


class TestAgainstThePerWindowScan:
    def test_columnar_run(self, mysql_db):
        sim = ClusterSimulator(mysql_db, uniform_fleet(5), RoundRobinRouter())
        m = sim.run(_stream(count=600, mean_s=0.01), vectorized=True)
        for window_s in _window_sizes(m):
            assert_matches_scan(m, window_s)

    def test_loop_run_with_sleeps_and_wakes(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.4), _dynamic()
        ).run(_stream(count=200))
        assert any(n.sleep_spans for n in m.nodes)
        assert any(n.wake_spans for n in m.nodes)
        for window_s in _window_sizes(m):
            windows = assert_matches_scan(m, window_s)
            assert sum(w.arrivals for w in windows) == 200
            assert sum(w.re_sleeps for w in windows) == sum(
                1 for n in m.nodes for start, _ in n.sleep_spans if start > 0
            )

    def test_loop_run_with_shed_queries(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4),
            PowerCapRouter(cap_w=445.0, max_delay_s=0.0),
        ).run(_stream(mean_s=0.005))
        assert m.shed
        for window_s in _window_sizes(m):
            windows = assert_matches_scan(m, window_s)
            assert sum(w.arrivals for w in windows) == 120
            assert sum(w.served for w in windows) == m.served

    def test_loop_run_under_an_active_fault_plan(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5), _dynamic(),
            master_queue=None, faults=fault_plan(),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.05),
        ).run(_stream(count=160, seed=3))
        assert m.faults is not None and m.faults.crashes > 0
        for window_s in _window_sizes(m):
            assert_matches_scan(m, window_s)

    def test_master_qed_run(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(3), RoundRobinRouter(),
            master_queue=MasterQueue(BatchPolicy(4, max_wait_s=0.2)),
        ).run(_stream())
        for window_s in _window_sizes(m):
            assert_matches_scan(m, window_s)

    def test_windows_tile_the_run(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.4), _dynamic()
        ).run(_stream(count=200))
        windows = m.window_report(m.horizon_s / 9.5)
        assert sum(w.modeled_joules for w in windows) == pytest.approx(
            m.modeled_wall_joules, rel=REL
        )
        assert sum(w.awake_node_s for w in windows) == pytest.approx(
            m.awake_node_s, rel=REL
        )
        assert sum(w.busy_node_s for w in windows) == pytest.approx(
            sum(n.busy_s for n in m.nodes), rel=REL
        )


def _node(name="n0", horizon_s=1.0, busy=(), sleep=(), wake=()) -> NodeUsage:
    return NodeUsage(
        name=name, queries=len(busy),
        busy_s=sum(e - s for s, e in busy),
        wake_s=sum(e - s for s, e in wake),
        sleep_s=sum(e - s for s, e in sleep),
        horizon_s=horizon_s, playback=zero_measurement(), sleep_joules=0.0,
        sleep_spans=tuple(sleep), wake_spans=tuple(wake),
        idle_wall_w=100.0, busy_wall_w=180.0, sleep_wall_w=3.0,
    )


class TestEdges:
    def test_zero_horizon(self):
        m = ClusterMeasurement(
            0.0, [_node(horizon_s=0.0)], response_columns()
        )
        (w,) = assert_matches_scan(m, 30.0)
        assert (w.start_s, w.end_s, w.arrivals, w.served) == (0.0, 0.0, 0, 0)
        assert w.modeled_joules == 0.0 and w.p95_response_s == 0.0

    def test_float_noise_horizon_and_completion_at_the_horizon(self):
        horizon = 0.1 + 0.1 + 0.1  # 0.30000000000000004
        m = ClusterMeasurement(
            horizon_s=horizon,
            nodes=[_node(horizon_s=horizon, busy=[(0.05, horizon)])],
            busy_windows=busy_windows([(0.05, horizon)]),
            response_columns=response_columns(
                QueryResponse("q", "n0", 0.0, 0.05, 0.1),  # on an edge
                QueryResponse("q", "n0", 0.2, 0.2, horizon),
            ),
            shed=[ShedQuery("q", horizon, 2), ShedQuery("q", 0.0, 3)],
        )
        windows = assert_matches_scan(m, 0.1)
        assert len(windows) == 3
        assert [w.served for w in windows] == [0, 1, 1]
        assert [w.arrivals for w in windows] == [2, 0, 2]
        assert windows[-1].end_s == horizon

    def test_spans_crossing_many_windows(self):
        """A busy span over >= 3 windows, a sleep span over all of
        them, spans ending exactly on window edges, zero-length spans,
        and a second node whose spans all sit inside single windows."""
        horizon = 10.0
        busy = [
            [(0.5, 0.75), (1.5, 7.25), (8.0, 9.0), (9.0, 9.0)],
            [(4.1, 4.2), (4.2, 4.9)],
            [],
        ]
        nodes = [
            _node("n0", horizon, busy=busy[0]),
            _node("n1", horizon, busy=busy[1],
                  sleep=[(0.0, 4.0), (5.0, horizon)], wake=[(4.0, 4.05)]),
            _node("n2", horizon, sleep=[(0.0, horizon)]),
        ]
        m = ClusterMeasurement(horizon, nodes, response_columns(),
                               busy_windows=busy_windows(*busy))
        for window_s in (1.0, 2.0, 0.3, 3.7, 10.0, 25.0):
            windows = assert_matches_scan(m, window_s)
            assert sum(w.busy_node_s for w in windows) == pytest.approx(
                sum(n.busy_s for n in nodes), rel=REL
            )
            assert sum(w.sleep_node_s for w in windows) == pytest.approx(
                sum(n.sleep_s for n in nodes), rel=REL
            )
        per_second = m.window_report(1.0)
        # n0's long span covers windows 2..6 whole and 1 and 7 in part.
        assert [round(w.busy_node_s, 9) for w in per_second[1:8]] == [
            0.5, 1.0, 1.0, 1.0 + 0.8, 1.0, 1.0, 0.25,
        ]
        assert per_second[5].re_sleeps == 1  # n1 re-enters sleep at 5.0

    def test_window_longer_than_the_horizon(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(_stream(count=30))
        (w,) = assert_matches_scan(m, 10.0 * m.horizon_s)
        assert (w.start_s, w.end_s) == (0.0, m.horizon_s)
        assert w.served == m.served == w.arrivals
        assert w.p95_response_s == pytest.approx(m.p95_response_s, rel=REL)

    @pytest.mark.parametrize("window_s", [0.0, -1.0, math.inf, math.nan])
    def test_bad_window_rejected(self, window_s):
        m = ClusterMeasurement(1.0, [], response_columns())
        with pytest.raises(ValueError, match="window_s must be positive"):
            m.window_report(window_s)


class TestMetricsRegistryReconciles:
    def test_samples_and_counters_line_up_with_the_windows(self, mysql_db):
        """The registry samples on the tiling ``window_report`` bins on:
        one row per window start, and the streamed arrival counter is
        the windows' arrival total."""
        registry = MetricsRegistry(window_s=0.5)
        m = ClusterSimulator(
            mysql_db, uniform_fleet(3), _dynamic(), metrics=registry
        ).run(_stream())
        windows = assert_matches_scan(m, 0.5)
        starts = [w.start_s for w in windows]
        sampled = [s["t_s"] for s in registry.samples]
        assert sampled[:len(starts)] == pytest.approx(starts, abs=1e-9)
        assert len(sampled) - len(starts) in (0, 1)  # a sample at the horizon
        counters = {c.name: c.value for c in registry.counters()}
        assert counters["arrivals"] == sum(w.arrivals for w in windows)
        assert registry.histogram("response_s").count == sum(
            w.served for w in windows
        )


class TestCliPhaseReport:
    RUN = ["cluster", "--sf", "0.002", "--nodes", "2", "--arrivals", "20",
           "--distinct", "4", "--policy", "spread"]

    def test_sub_second_windows_print_distinct_bounds(self, capsys):
        """Each row's bounds are its window's, to the window length's
        places; only the last, which ends at the horizon, closes."""
        assert main([*self.RUN, "--window", "0.5"]) == 0
        out = capsys.readouterr().out
        rows = re.findall(r"^ +\[([\d.]+), ([\d.]+)([)\]])", out, re.M)
        assert len(rows) >= 3
        starts = [float(lo) for lo, _, _ in rows]
        assert starts == [0.5 * k for k in range(len(rows))]
        assert [lo for lo, _, _ in rows][:3] == ["0.0", "0.5", "1.0"]
        assert [hi for _, hi, _ in rows[:-1]] == [
            lo for lo, _, _ in rows[1:]
        ]
        closes = [close for _, _, close in rows]
        assert closes == [")"] * (len(rows) - 1) + ["]"]
        assert float(rows[-1][1]) > starts[-1]

    @pytest.mark.parametrize("window", ["0", "inf", "nan"])
    def test_bad_window_is_a_named_error(self, window, capsys):
        assert main([*self.RUN, "--window", window]) == 2
        assert "--window must be positive and finite" in (
            capsys.readouterr().err
        )
