"""Fault-injection & recovery layer: plans, retries, and the guards.

Covers the ISSUE-6 acceptance points: the empty-plan identity (a run
with an empty :class:`FaultPlan` is bitwise the run without one), the
same-seed determinism audit (one seeded RNG threads arrivals and fault
outcomes), conservation under faults (every arrival is served exactly
once or visibly dead-lettered, reconciling with SLA-miss accounting),
and the per-kind fault behaviors the simulator models.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import (
    ClusterSimulator,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    LeastLoadedRouter,
    RetryPolicy,
    RoundRobinRouter,
    load_fault_plan,
    uniform_fleet,
)
from repro.workloads.arrivals import poisson_arrivals, uniform_arrivals
from repro.workloads.selection import selection_workload


def _stream(count=60, distinct=10, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _backlogged_stream(count=40, distinct=10, gap_s=0.01):
    """Back-to-back arrivals that keep every node continuously busy,
    so a crash deterministically strikes in-flight work."""
    queries = selection_workload(distinct).queries
    return uniform_arrivals(
        [queries[i % distinct] for i in range(count)], gap_s
    )


def _conserves(m, stream):
    answered = sorted(
        [(r.sql, r.arrival_s) for r in m.responses]
        + [(s.sql, s.arrival_s) for s in m.shed]
    )
    return answered == sorted((a.sql, a.time_s) for a in stream)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown", "node00")

    def test_target_node_required(self):
        with pytest.raises(ValueError, match="target node"):
            FaultSpec("crash", "")

    def test_crash_times_validated(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", "n", at_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec("crash", "n", at_s=5.0, recover_s=5.0)
        FaultSpec("crash", "n", at_s=5.0, recover_s=5.5)  # ok

    def test_window_validated(self):
        with pytest.raises(ValueError):
            FaultSpec("straggler", "n", start_s=-0.1, slowdown=2.0)
        with pytest.raises(ValueError):
            FaultSpec("unavailable", "n", start_s=2.0, end_s=2.0)
        # end_s=None means "until the end of the run"
        spec = FaultSpec("unavailable", "n", start_s=2.0)
        assert spec.in_window(1e9) and not spec.in_window(1.0)

    def test_probability_and_slowdown_ranges(self):
        with pytest.raises(ValueError):
            FaultSpec("wake-failure", "n", probability=0.0)
        with pytest.raises(ValueError):
            FaultSpec("wake-failure", "n", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("straggler", "n", slowdown=1.0)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_retry_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=0.5,
                             multiplier=2.0)
        assert policy.delay_s(1) == 0.5
        assert policy.delay_s(2) == 1.0
        assert policy.delay_s(3) == 2.0
        with pytest.raises(ValueError):
            policy.delay_s(0)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)


class TestPlanSerialization:
    def test_from_dict_round_trip(self):
        plan = FaultPlan.from_dict({
            "seed": 7,
            "faults": [
                {"kind": "crash", "node": "node00", "at_s": 3.0,
                 "recover_s": 5.0},
                {"kind": "wake-failure", "node": "node01",
                 "end_s": 2.0, "probability": 0.5},
            ],
        })
        assert plan.seed == 7 and len(plan.specs) == 2
        assert plan.crashes_for("node00")[0].recover_s == 5.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            FaultPlan.from_dict({
                "faults": [{"kind": "crash", "node": "n", "when": 3.0}],
            })

    def test_load_fault_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 3,
            "faults": [{"kind": "unavailable", "node": "node00",
                        "start_s": 1.0, "end_s": 2.0}],
        }))
        plan = load_fault_plan(str(path))
        assert not plan.empty
        assert not plan.available("node00", 1.5)
        assert plan.available("node00", 2.5)
        assert plan.available("other", 1.5)

    def test_example_plan_parses(self):
        plan = load_fault_plan("examples/fault_plan.json")
        kinds = sorted(s.kind for s in plan.specs)
        assert kinds == [
            "crash", "straggler", "unavailable", "wake-failure",
        ]

    def test_plan_targeting_unknown_node_rejected(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=FaultPlan([FaultSpec("crash", "ghost", at_s=1.0)]),
        )
        with pytest.raises(ValueError, match="unknown nodes"):
            sim.run(_stream(count=10))

    @pytest.mark.parametrize("doc, error", [
        ({"faults": [{"node": "node01", "at_s": 1.0}]},
         "fault 0: missing key 'kind'"),
        ([{"kind": "crash"}],
         "expected an object with a 'faults' list, got a list"),
        ({"faults": [1]}, "fault 0: expected an object, got 1"),
        ({"faults": [{"kind": "crash", "node": "node01", "at_s": "soon"}]},
         "fault 0: 'at_s' must be a finite number, got 'soon'"),
        ({"faults": [{"kind": "crash", "node": "node01", "at_s": 1.0}]},
         None),
    ], ids=["no-kind", "bare-list", "not-an-object", "string-time",
            "valid"])
    def test_malformed_plan_exits_2_naming_file_fault_key_value(
        self, doc, error, tmp_path, capsys,
    ):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        rc = main(["cluster", "--sf", "0.002", "--nodes", "2",
                   "--arrivals", "5", "--faults", str(path)])
        err = capsys.readouterr().err
        if error is None:
            assert (rc, err) == (0, "")
        else:
            assert (rc, err) == (2, f"error: fault plan {path}: {error}\n")


class TestEmptyPlanIdentity:
    """An empty plan injects nothing and costs nothing: the schedule,
    energies, and full summary are identical to a plan-free run."""

    @pytest.mark.parametrize("router_factory", [
        RoundRobinRouter,
        LeastLoadedRouter,
        lambda: ConsolidateRouter(max_backlog_s=0.5),
        lambda: DynamicConsolidateRouter(max_backlog_s=0.5),
    ])
    def test_empty_plan_is_identity(self, mysql_db, router_factory):
        stream = _stream(count=50)
        base = ClusterSimulator(
            mysql_db, uniform_fleet(3, wake_latency_s=0.2),
            router_factory(),
        ).run(stream)
        faulted = ClusterSimulator(
            mysql_db, uniform_fleet(3, wake_latency_s=0.2),
            router_factory(), faults=FaultPlan(),
        ).run(stream)
        assert abs(base.wall_joules - faulted.wall_joules) <= 1e-9
        assert abs(base.edp - faulted.edp) <= 1e-9
        assert base.summary() == faulted.summary()
        assert [r.completion_s for r in base.responses] == [
            r.completion_s for r in faulted.responses
        ]

    def test_empty_plan_reports_no_faults(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=FaultPlan(),
        ).run(_stream(count=20))
        assert m.faults is None
        assert "fault_crashes" not in m.summary()


class TestCrashRecovery:
    def test_crash_requeues_in_flight_work(self, mysql_db):
        stream = _backlogged_stream(count=40)
        plan = FaultPlan([
            FaultSpec("crash", "node00", at_s=0.5),
        ])
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=plan, retry=RetryPolicy(max_attempts=4,
                                           backoff_s=0.01),
        ).run(stream)
        report = m.faults
        assert report.crashes == 1
        assert report.requeued >= 1  # struck mid-backlog
        assert report.retries >= report.requeued
        assert report.wasted_joules > 0  # partial burn written off
        # The survivor absorbed everything: nothing lost, nothing shed.
        assert m.served == len(stream) and not m.shed
        assert _conserves(m, stream)

    def test_retried_queries_keep_original_arrival(self, mysql_db):
        """Response-time accounting must charge the whole outage, so a
        retried query's response is measured from its *first* arrival."""
        stream = _backlogged_stream(count=30)
        plan = FaultPlan([FaultSpec("crash", "node00", at_s=0.4)])
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=plan, retry=RetryPolicy(backoff_s=0.01),
        ).run(stream)
        assert _conserves(m, stream)
        affected = m.faults.affected
        assert affected  # some identity was marked
        retried = [r for r in m.responses
                   if (r.sql, r.arrival_s) in affected]
        assert retried
        for r in retried:
            assert r.response_s > 0

    def test_recovered_node_rejoins_through_wake(self, mysql_db):
        stream = _stream(count=60, mean_s=0.03)
        plan = FaultPlan([
            FaultSpec("crash", "node00", at_s=0.3, recover_s=0.6),
        ])
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2, wake_latency_s=0.1),
            RoundRobinRouter(), faults=plan,
            retry=RetryPolicy(backoff_s=0.01),
        )
        schedule = sim.schedule(stream)
        node00 = sim.nodes[0]  # live node state after scheduling
        assert node00.crashed_s is None  # recovered by end of run
        assert node00.crash_log == [0.3]
        late = [w for w in node00.scheduled if w.start_s >= 0.6]
        assert late  # it took work again after recovery
        # ... but not before paying the wake transition.
        assert min(w.start_s for w in late) >= 0.6 + 0.1 - 1e-9
        m = sim.playback(schedule)
        assert _conserves(m, stream)

    def test_unrecoverable_crash_dead_letters(self, mysql_db):
        """With no fleet left, retries exhaust and queries are shed
        *with accounting*: shed == dead-lettered, and the SLA ledger
        still adds up (a dead-lettered query is a visible SLA miss)."""
        stream = _backlogged_stream(count=8, gap_s=0.05)
        plan = FaultPlan([FaultSpec("crash", "node00", at_s=0.12)])
        m = ClusterSimulator(
            mysql_db, uniform_fleet(1), RoundRobinRouter(),
            faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
        ).run(stream)
        report = m.faults
        assert report.dead_lettered > 0
        assert len(m.shed) == report.dead_lettered
        assert m.served + len(m.shed) == len(stream)
        assert _conserves(m, stream)  # shed are accounted, not lost
        sla_s = 10.0
        split = m.sla_split(sla_s)
        assert split["affected_total"] + split["unaffected_total"] == (
            len(stream)
        )
        # Shed queries count as misses on the affected side.
        assert m.sla_violations(sla_s) >= report.dead_lettered
        misses = (
            split["affected_total"] - split["affected_met"]
            + split["unaffected_total"] - split["unaffected_met"]
        )
        assert misses == m.sla_violations(sla_s)


def _sla_split_by_scan(m, sla_s):
    """``sla_split`` the per-response way: one object at a time."""
    affected = m.faults.affected if m.faults else set()
    out = dict.fromkeys(
        ("affected_total", "affected_met",
         "unaffected_total", "unaffected_met"), 0.0
    )
    for r in m.responses:
        side = "affected" if (r.sql, r.arrival_s) in affected else (
            "unaffected"
        )
        out[f"{side}_total"] += 1
        out[f"{side}_met"] += r.response_s <= sla_s
    for q in m.shed:
        side = "affected" if (q.sql, q.arrival_s) in affected else (
            "unaffected"
        )
        out[f"{side}_total"] += 1
    for side in ("affected", "unaffected"):
        total = out[f"{side}_total"]
        out[f"{side}_attainment"] = (
            out[f"{side}_met"] / total if total else 1.0
        )
    return out


class TestSlaSplit:
    def test_fault_free_split_is_engine_independent(self, mysql_db):
        sim = ClusterSimulator(mysql_db, uniform_fleet(3),
                               RoundRobinRouter())
        stream = _stream(count=90, mean_s=0.01)
        fast = sim.run(stream, vectorized=True)
        loop = sim.run(stream, vectorized=False)
        for sla_s in (0.0, fast.p50_response_s, fast.p95_response_s, 60.0):
            split = fast.sla_split(sla_s)
            assert split == loop.sla_split(sla_s)
            assert split == _sla_split_by_scan(fast, sla_s)
            assert split["affected_total"] == 0.0
            assert split["unaffected_total"] == 90.0

    def test_split_under_every_fault_kind_matches_a_scan(self, mysql_db):
        """All four fault kinds live, retried *and* dead-lettered
        queries on the affected side: the columnar split equals the
        per-response scan."""
        plan = FaultPlan([
            FaultSpec("unavailable", "node02", start_s=1.0, end_s=1.6),
            FaultSpec("crash", "node00", at_s=0.9, recover_s=2.0),
            FaultSpec("crash", "node01", at_s=1.0, recover_s=2.0),
            FaultSpec("wake-failure", "node03", start_s=0.0, end_s=1.5,
                      probability=1.0),
            FaultSpec("straggler", "node01", start_s=2.0, end_s=4.0,
                      slowdown=4.0),
        ], seed=7)
        stream = _stream(count=200, mean_s=0.02, seed=3)
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.2),
            DynamicConsolidateRouter(max_backlog_s=0.1), faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.05),
        ).run(stream)
        assert m.shed and m.faults.failed_wakes and m.faults.crashes == 2
        served_affected = sum(
            (r.sql, r.arrival_s) in m.faults.affected for r in m.responses
        )
        assert 0 < served_affected < len(m.faults.affected)
        for sla_s in (0.0, m.p50_response_s, m.p95_response_s, 60.0):
            split = m.sla_split(sla_s)
            assert split == _sla_split_by_scan(m, sla_s)
            assert split["affected_total"] == len(m.faults.affected)
            assert split["affected_total"] + split[
                "unaffected_total"
            ] == len(stream)
        assert 0 < m.sla_split(60.0)["affected_met"] == served_affected


class TestWakeFailureAndStraggler:
    def test_wake_failures_are_survived_and_counted(self, mysql_db):
        plan = FaultPlan([
            FaultSpec("wake-failure", "node01", end_s=1.0,
                      probability=1.0),
        ])
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2, wake_latency_s=0.05),
            DynamicConsolidateRouter(max_backlog_s=0.1),
            faults=plan, retry=RetryPolicy(backoff_s=0.01),
        ).run(_stream(count=60, mean_s=0.02))
        assert m.faults.failed_wakes >= 1
        assert m.served + len(m.shed) == 60

    def test_straggler_window_slows_and_costs(self, mysql_db):
        stream = _backlogged_stream(count=20)
        healthy = ClusterSimulator(
            mysql_db, uniform_fleet(1), RoundRobinRouter(),
        ).run(stream)
        slowed = ClusterSimulator(
            mysql_db, uniform_fleet(1), RoundRobinRouter(),
            faults=FaultPlan([
                FaultSpec("straggler", "node00", slowdown=3.0),
            ]),
        ).run(stream)
        assert slowed.p95_response_s > healthy.p95_response_s
        assert slowed.horizon_s > healthy.horizon_s
        assert slowed.wall_joules > healthy.wall_joules
        assert slowed.served == healthy.served == len(stream)

    def test_unavailable_node_is_skipped(self, mysql_db):
        plan = FaultPlan([
            FaultSpec("unavailable", "node01", start_s=0.0),
        ])
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=plan, retry=RetryPolicy(backoff_s=0.01),
        ).run(_stream(count=30))
        by_name = {n.name: n for n in m.nodes}
        assert by_name["node01"].queries == 0
        assert by_name["node00"].queries == 30
        assert m.served == 30


class TestDeterminism:
    def _plan(self):
        return FaultPlan([
            FaultSpec("crash", "node00", at_s=0.4, recover_s=0.9),
            FaultSpec("wake-failure", "node01", end_s=1.5,
                      probability=0.5),
            FaultSpec("straggler", "node02", start_s=0.2, end_s=1.0,
                      slowdown=2.0),
        ], seed=11)

    def test_same_seed_same_summary(self, mysql_db):
        """The same plan replayed over the same stream reproduces the
        measurement exactly -- including the probabilistic wake
        outcomes, which draw from the plan's own seeded RNG."""
        stream = _stream(count=60, mean_s=0.02)

        def run():
            return ClusterSimulator(
                mysql_db, uniform_fleet(3, wake_latency_s=0.1),
                DynamicConsolidateRouter(max_backlog_s=0.2),
                faults=self._plan(),
                retry=RetryPolicy(backoff_s=0.01),
            ).run(stream)

        assert run().summary() == run().summary()

    def test_same_plan_object_reseeds_each_run(self, mysql_db):
        """One plan instance reused across schedule() calls reseeds at
        begin_run(), so back-to-back runs agree too."""
        stream = _stream(count=40, mean_s=0.02)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(3, wake_latency_s=0.1),
            DynamicConsolidateRouter(max_backlog_s=0.2),
            faults=self._plan(), retry=RetryPolicy(backoff_s=0.01),
        )
        assert sim.run(stream).summary() == sim.run(stream).summary()

    def test_shared_rng_threads_arrivals_and_faults(self, mysql_db):
        """The determinism-audit path: ONE seeded generator drives both
        the arrival process and the fault outcomes, and the whole run
        is reproducible from that single seed."""
        queries = selection_workload(8).queries

        def run(seed):
            rng = np.random.default_rng(seed)
            stream = poisson_arrivals(
                [queries[i % 8] for i in range(50)], 0.02, rng=rng
            )
            plan = self._plan()
            plan.begin_run(rng)  # faults now draw from the same rng
            m = ClusterSimulator(
                mysql_db, uniform_fleet(3, wake_latency_s=0.1),
                DynamicConsolidateRouter(max_backlog_s=0.2),
                faults=plan, retry=RetryPolicy(backoff_s=0.01),
            ).run(stream)
            return m.summary()

        assert run(123) == run(123)
        # A different seed shifts the arrivals, hence the horizon.
        assert run(123) != run(321)


class TestConservationUnderFaults:
    def test_canonical_plan_conserves_all_arrivals(self, mysql_db):
        """The full canonical plan (all four fault kinds) across both
        fleet modes: every arrival is served exactly once or visibly
        dead-lettered, and the dead-letter count reconciles with the
        shed ledger the SLA accounting reads."""
        from repro.measurement.ablations import fault_plan

        stream = _stream(count=80, mean_s=0.05, seed=3)
        for router in (
            RoundRobinRouter(),
            DynamicConsolidateRouter(max_backlog_s=1.0),
        ):
            m = ClusterSimulator(
                mysql_db, uniform_fleet(4, wake_latency_s=0.5),
                router, faults=fault_plan(),
                retry=RetryPolicy(max_attempts=4, backoff_s=0.05),
            ).run(stream)
            assert _conserves(m, stream)
            assert len(m.shed) == m.faults.dead_lettered
            assert m.faults.crashes == 1
            summary = m.summary()
            assert summary["fault_crashes"] == 1.0
            assert summary["served"] + summary["shed"] == len(stream)
