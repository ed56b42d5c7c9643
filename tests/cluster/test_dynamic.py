"""Dynamic re-consolidation, adaptive PVC, heterogeneous fleets
(ISSUE 4 tentpole invariants).

* No arrival is ever served by a sleeping node: busy windows never
  intersect sleep spans, and never precede the enclosing wake's end.
* Energy conservation: batched playback equals the per-piece replay
  loop to 1e-9 relative on dynamic, adaptive, and heterogeneous runs,
  and awake playback time plus sleep time covers the whole horizon.
* Re-sleep only after drain: a node re-enters sleep only once its
  backlog is empty.
* The phase-sliced window report tiles the run exactly.
"""

import pytest

from loop_playback import loop_playback
from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    NodeGroup,
    RoundRobinRouter,
    hetero_fleet,
    uniform_fleet,
)
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.workloads.arrivals import (
    piecewise_schedule,
    poisson_arrivals,
    rate_schedule_arrivals,
)
from repro.workloads.selection import selection_workload

REL = 1e-9

#: High / low / high offered load: the shape that forces wake,
#: re-sleep, and re-wake in one run.
WAVE = piecewise_schedule([(8.0, 25.0), (20.0, 0.8), (8.0, 25.0)])


def _wave_stream(seed=5, distinct=12):
    queries = selection_workload(distinct).queries
    return rate_schedule_arrivals(queries, WAVE, seed=seed)


def _dynamic_router(**kwargs):
    kwargs.setdefault("max_backlog_s", 0.2)
    kwargs.setdefault("target_utilization", 0.5)
    kwargs.setdefault("ewma_alpha", 0.4)
    return DynamicConsolidateRouter(**kwargs)


def _hetero_specs(wake_latency_s=0.5):
    eco = PvcSetting(10, VoltageDowngrade.MEDIUM)
    return hetero_fleet([
        NodeGroup(2, prefix="big", hw="paper",
                  wake_latency_s=wake_latency_s),
        NodeGroup(2, prefix="eco", hw="paper-nogpu", setting=eco,
                  capacity=0.8, sleep_wall_w=2.0,
                  wake_latency_s=wake_latency_s),
    ])


class TestDynamicReconsolidation:
    def test_load_drop_triggers_resleep(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        m = sim.run(_wave_stream())
        assert m.re_sleeps > 0

    def test_no_work_on_sleeping_nodes(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        schedule = sim.schedule(_wave_stream())
        for node in schedule.nodes:
            spans = node.sleep_spans(schedule.horizon_s)
            for work in node.scheduled:
                for start, end in spans:
                    overlap = min(end, work.end_s) - max(start,
                                                         work.start_s)
                    assert overlap <= 1e-12, (
                        f"{node.spec.name} busy window intersects sleep"
                    )

    def test_work_never_starts_inside_wake_transition(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=1.0),
            _dynamic_router(),
        )
        schedule = sim.schedule(_wave_stream())
        for node in schedule.nodes:
            for called, ready in node.wake_log:
                for work in node.scheduled:
                    inside = (
                        work.start_s > called - 1e-12
                        and work.start_s < ready - 1e-12
                    )
                    assert not inside

    def test_resleep_only_after_drain(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        schedule = sim.schedule(_wave_stream())
        for node in schedule.nodes:
            for start, _ in node.sleep_log:
                if start == 0.0:
                    continue  # started asleep: provisioning, not drain
                for work in node.scheduled:
                    # anything begun before the sleep had finished
                    if work.start_s < start:
                        assert work.end_s <= start + 1e-9

    def test_energy_conservation_batched_vs_loop(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        schedule = sim.schedule(_wave_stream())
        batched = sim.playback(schedule)
        loop = loop_playback(sim, schedule)
        assert batched.wall_joules == pytest.approx(
            loop.wall_joules, rel=REL
        )
        assert batched.cpu_joules == pytest.approx(
            loop.cpu_joules, rel=REL
        )

    def test_sleep_plus_awake_covers_horizon(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        m = sim.run(_wave_stream())
        for usage in m.nodes:
            covered = usage.playback.duration_s + usage.sleep_s
            assert covered == pytest.approx(m.horizon_s, rel=1e-6)

    def test_saves_awake_node_seconds_vs_spread(self, mysql_db):
        stream = _wave_stream()
        spread = ClusterSimulator(
            mysql_db, uniform_fleet(4), RoundRobinRouter()
        ).run(stream)
        dynamic = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        ).run(stream)
        assert dynamic.awake_node_s < spread.awake_node_s
        assert dynamic.wall_joules < spread.wall_joules
        assert dynamic.served == spread.served == len(stream)

    def test_schedule_prewakes_ahead_of_peak(self, mysql_db):
        """With the rate curve known, capacity for the second crest is
        woken during the preceding trough (wake-latency ahead), not
        after the crest's backlog has already built."""
        wake_latency = 4.0
        stream = _wave_stream()
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=wake_latency),
            _dynamic_router(schedule=WAVE),
        )
        schedule = sim.schedule(stream)
        # The low phase spans [8, 28); the second crest starts at 28.
        prewakes = [
            called
            for node in schedule.nodes
            for called, _ in node.wake_log
            if 8.0 < called < 28.0
        ]
        assert prewakes, "no node was pre-woken during the trough"

    def test_min_awake_respected(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(min_awake=2),
        )
        m = sim.run(_wave_stream())
        # At every instant at least two nodes out of sleep: total sleep
        # node-seconds can never exceed (n - 2) * horizon.
        assert m.awake_node_s >= 2.0 * m.horizon_s - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicConsolidateRouter(0.2, target_utilization=0.0)
        with pytest.raises(ValueError):
            DynamicConsolidateRouter(0.2, hysteresis=-0.1)
        with pytest.raises(ValueError):
            DynamicConsolidateRouter(0.2, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            DynamicConsolidateRouter(0.2, min_awake=0)


class TestAdaptivePvcRouter:
    def test_nodes_walk_the_ladder_under_load(self, mysql_db):
        router = AdaptivePvcRouter(deadline_s=0.08)
        sim = ClusterSimulator(mysql_db, uniform_fleet(2), router)
        schedule = sim.schedule(_wave_stream())
        settings_used = {
            work.setting
            for node in schedule.nodes
            for work in node.scheduled
        }
        assert len(settings_used) > 1, "load never moved the ladder"
        assert settings_used <= set(router.ladder)

    def test_energy_conservation_with_retuning(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2),
            AdaptivePvcRouter(deadline_s=0.08),
        )
        schedule = sim.schedule(_wave_stream())
        batched = sim.playback(schedule)
        loop = loop_playback(sim, schedule)
        for a, b in zip(batched.nodes, loop.nodes):
            assert a.playback.wall_joules == pytest.approx(
                b.playback.wall_joules, rel=REL
            )
            assert a.playback.duration_s == pytest.approx(
                b.playback.duration_s, rel=REL
            )

    def test_cheap_settings_win_when_idle(self, mysql_db):
        """A lazy stream keeps every node at the energy-saving end of
        the ladder; stock-pinned spread must burn more CPU energy for
        the same work."""
        queries = selection_workload(6).queries
        stream = poisson_arrivals(queries * 5, 0.5, seed=2)
        stock = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(stream)
        adaptive = ClusterSimulator(
            mysql_db, uniform_fleet(2),
            AdaptivePvcRouter(deadline_s=10.0),
        ).run(stream)
        assert adaptive.cpu_joules < stock.cpu_joules

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePvcRouter(deadline_s=0.0)
        with pytest.raises(ValueError):
            AdaptivePvcRouter(deadline_s=1.0, ladder=[])
        with pytest.raises(ValueError):
            AdaptivePvcRouter(deadline_s=1.0, slack_threshold=1.5)


class TestHeterogeneousFleet:
    def test_batched_equals_loop_on_hetero_fleet(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, _hetero_specs(), _dynamic_router()
        )
        schedule = sim.schedule(_wave_stream())
        batched = sim.playback(schedule)
        loop = loop_playback(sim, schedule)
        for a, b in zip(batched.nodes, loop.nodes):
            assert a.playback.wall_joules == pytest.approx(
                b.playback.wall_joules, rel=REL
            )
        assert batched.wall_joules == pytest.approx(
            loop.wall_joules, rel=REL
        )

    def test_hw_profiles_differ_in_energy(self, mysql_db):
        """The GPU-less profile draws measurably less idle power."""
        stream = _wave_stream()
        full = ClusterSimulator(
            mysql_db, uniform_fleet(2, hw="paper"), RoundRobinRouter()
        ).run(stream)
        lean = ClusterSimulator(
            mysql_db, uniform_fleet(2, hw="paper-nogpu"),
            RoundRobinRouter(),
        ).run(stream)
        assert lean.wall_joules < full.wall_joules

    def test_capacity_scales_consolidate_backlog(self, mysql_db):
        stream = _wave_stream()
        small = ClusterSimulator(
            mysql_db,
            uniform_fleet(4, capacity=0.05, wake_latency_s=0.01),
            ConsolidateRouter(max_backlog_s=1.0),
        ).run(stream)
        large = ClusterSimulator(
            mysql_db,
            uniform_fleet(4, capacity=50.0, wake_latency_s=0.01),
            ConsolidateRouter(max_backlog_s=1.0),
        ).run(stream)
        assert large.awake_nodes < small.awake_nodes

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            hetero_fleet([])
        with pytest.raises(ValueError):
            hetero_fleet([NodeGroup(2, prefix="x"),
                          NodeGroup(2, prefix="x")])
        with pytest.raises(ValueError):
            NodeGroup(1, hw="no-such-profile")
        with pytest.raises(ValueError):
            NodeGroup(0)

    def test_unknown_hw_rejected_by_simulator(self, mysql_db):
        from repro.cluster import NodeSpec

        spec = NodeSpec("weird", hw="missing")
        with pytest.raises(ValueError):
            ClusterSimulator(mysql_db, [spec], RoundRobinRouter())


class TestWindowReport:
    def test_windows_tile_the_run(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        m = sim.run(_wave_stream())
        windows = m.window_report(7.0)
        assert windows[0].start_s == 0.0
        assert windows[-1].end_s == pytest.approx(m.horizon_s)
        for a, b in zip(windows, windows[1:]):
            assert b.start_s == pytest.approx(a.end_s)
        assert sum(w.served for w in windows) == m.served
        assert sum(w.arrivals for w in windows) == m.served + len(m.shed)
        assert sum(w.re_sleeps for w in windows) == m.re_sleeps
        assert sum(w.awake_node_s for w in windows) == pytest.approx(
            m.awake_node_s, rel=1e-9
        )

    def test_modeled_energy_tracks_playback_energy(self, mysql_db):
        """The envelope model attributes energy in time; its total must
        land near the exact playback total (same linear model the
        power-cap router trusts)."""
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            _dynamic_router(),
        )
        m = sim.run(_wave_stream())
        modeled = sum(
            w.modeled_joules for w in m.window_report(5.0)
        )
        assert modeled == pytest.approx(m.wall_joules, rel=0.2)

    def test_validation(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        )
        m = sim.run(_wave_stream())
        with pytest.raises(ValueError):
            m.window_report(0.0)
