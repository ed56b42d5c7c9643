"""Cluster conservation invariants (ISSUE 2 satellite).

* Batched playback energy equals the sum of sequential per-node
  ``run_compiled`` energy to 1e-9 relative.
* Consolidate-with-sleep never starts work on a sleeping node before
  its wake latency elapses.
* The power-cap policy never exceeds the cap in steady state.
"""

import pytest

from loop_playback import loop_playback
from repro.cluster import (
    ClusterSimulator,
    ConsolidateRouter,
    PowerCapRouter,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.cluster.playback import play_batched
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.cluster.node import NodeSpec
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload

REL = 1e-9


def _stream(count=120, distinct=12, mean_s=0.05, seed=3):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


@pytest.fixture()
def heterogeneous_specs():
    """Two playback groups: stock nodes and underclocked nodes."""
    slow = PvcSetting(10, VoltageDowngrade.MEDIUM)
    specs = uniform_fleet(2) + [
        NodeSpec("eco00", setting=slow),
        NodeSpec("eco01", setting=slow),
    ]
    return specs


class TestEnergyConservation:
    def test_batched_equals_sequential_per_node_playback(
        self, mysql_db, heterogeneous_specs
    ):
        sim = ClusterSimulator(
            mysql_db, heterogeneous_specs, RoundRobinRouter()
        )
        # The per-piece comparison below reads the loop scheduler's
        # piece maps; the vectorized path never materializes them.
        schedule = sim.schedule(_stream(), vectorized=False)
        batched = play_batched(
            schedule.nodes, schedule.pieces_by_node,
            schedule.workload_class,
        )
        for node in schedule.nodes:
            pieces = schedule.pieces_by_node[node.spec.name]
            sequential = None
            for piece in pieces:
                m = node.sut.run_compiled(piece, schedule.workload_class)
                sequential = m if sequential is None else sequential + m
            stacked = batched[node.spec.name]
            assert stacked.wall_joules == pytest.approx(
                sequential.wall_joules, rel=REL
            )
            assert stacked.cpu_joules == pytest.approx(
                sequential.cpu_joules, rel=REL
            )
            assert stacked.duration_s == pytest.approx(
                sequential.duration_s, rel=REL
            )

    def test_cluster_totals_identical_across_playback_modes(
        self, mysql_db, heterogeneous_specs
    ):
        sim = ClusterSimulator(
            mysql_db, heterogeneous_specs, RoundRobinRouter()
        )
        stream = _stream()
        batched = sim.run(stream)
        loop = loop_playback(sim, sim.schedule(stream, vectorized=False))
        assert batched.wall_joules == pytest.approx(
            loop.wall_joules, rel=REL
        )
        assert batched.cpu_joules == pytest.approx(
            loop.cpu_joules, rel=REL
        )
        assert batched.edp == pytest.approx(loop.edp, rel=REL)

    def test_playback_covers_the_whole_horizon(self, mysql_db):
        """Awake time plus sleep time accounts for every node-second."""
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(3, wake_latency_s=2.0),
            ConsolidateRouter(max_backlog_s=0.2),
        )
        m = sim.run(_stream())
        for usage in m.nodes:
            covered = usage.playback.duration_s + usage.sleep_s
            assert covered == pytest.approx(m.horizon_s, rel=1e-6)


class TestConsolidateSleepWake:
    def test_never_serves_before_wake_latency(self, mysql_db):
        wake_latency = 0.5
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=wake_latency),
            ConsolidateRouter(max_backlog_s=0.05),
        )
        schedule = sim.schedule(_stream(mean_s=0.01))
        woken = [
            n for n in schedule.nodes
            if not n.started_awake and n.wake_called_s is not None
        ]
        assert woken, "the load should wake at least one node"
        for node in woken:
            ready = node.wake_called_s + wake_latency
            assert node.wake_ready_s == pytest.approx(ready)
            for work in node.scheduled:
                assert work.start_s >= ready - 1e-12

    def test_sleeping_nodes_never_scheduled(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=1.0),
            ConsolidateRouter(max_backlog_s=10.0),  # node 0 absorbs all
        )
        m = sim.run(_stream())
        assert m.awake_nodes == 1
        sleepers = [n for n in m.nodes if n.playback.duration_s == 0]
        assert len(sleepers) == 3
        for usage in sleepers:
            assert usage.queries == 0
            assert usage.sleep_s == pytest.approx(m.horizon_s)
            assert usage.wall_joules == pytest.approx(
                3.5 * m.horizon_s
            )

    def test_short_burst_does_not_stampede_the_fleet_awake(
        self, mysql_db
    ):
        """Waking costs ~30 s here; a sub-second burst must ride out on
        the awake node (whose backlog clears far sooner), not wake
        sleepers that would answer *later* at idle-power cost."""
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(8, wake_latency_s=30.0),
            ConsolidateRouter(max_backlog_s=0.2),
        )
        burst = _stream(count=40, mean_s=0.005)
        m = sim.run(burst)
        assert m.awake_nodes == 1
        assert m.horizon_s < 5.0  # nowhere near a 30 s wake
        assert m.p99_response_s < 5.0

    def test_wakes_when_backlog_beats_wake_latency(self, mysql_db):
        """Sustained overload where waking genuinely helps must still
        wake nodes -- the burst guard is a comparison, not a ban."""
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.3),
            ConsolidateRouter(max_backlog_s=0.1),
        )
        m = sim.run(_stream(count=200, mean_s=0.005))
        assert m.awake_nodes > 1

    def test_consolidate_saves_energy_vs_spread(self, mysql_db):
        stream = _stream()
        spread = ClusterSimulator(
            mysql_db, uniform_fleet(4), RoundRobinRouter()
        ).run(stream)
        packed = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=1.0),
            ConsolidateRouter(max_backlog_s=1.0),
        ).run(stream)
        assert packed.wall_joules < spread.wall_joules
        assert packed.awake_nodes < len(packed.nodes)


class TestPowerCap:
    def test_steady_state_never_exceeds_cap(self, mysql_db):
        cap = 445.0  # tight: barely one busy node of headroom
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4), PowerCapRouter(cap_w=cap)
        )
        m = sim.run(_stream(mean_s=0.005))  # heavy load, forced delays
        assert m.served == 120
        assert m.cap_w == cap
        assert m.peak_power_w <= cap + 1e-9
        assert m.power_cap_overshoot_w == 0.0

    def test_uncapped_peak_exceeds_the_tight_cap(self, mysql_db):
        """The cap is binding: without it the same load peaks higher."""
        free = ClusterSimulator(
            mysql_db, uniform_fleet(4), RoundRobinRouter()
        ).run(_stream(mean_s=0.005))
        assert free.peak_power_w > 445.0

    def test_capped_run_is_slower_but_bounded(self, mysql_db):
        stream = _stream(mean_s=0.005)
        free = ClusterSimulator(
            mysql_db, uniform_fleet(4), RoundRobinRouter()
        ).run(stream)
        capped = ClusterSimulator(
            mysql_db, uniform_fleet(4), PowerCapRouter(cap_w=445.0)
        ).run(stream)
        assert capped.p95_response_s >= free.p95_response_s
        assert capped.peak_power_w <= free.peak_power_w

    def test_max_delay_sheds_instead_of_waiting(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4),
            PowerCapRouter(cap_w=445.0, max_delay_s=0.0),
        )
        m = sim.run(_stream(mean_s=0.005))
        assert len(m.shed) > 0
        assert m.served + len(m.shed) == 120
        assert m.peak_power_w <= 445.0 + 1e-9
        # Shed queries count as SLA misses.
        assert m.sla_violations(1e9) == len(m.shed)

    def test_infeasible_cap_rejected(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4), PowerCapRouter(cap_w=100.0)
        )
        with pytest.raises(ValueError):
            sim.run(_stream(count=5))
