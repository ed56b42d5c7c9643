"""Cluster simulator behavior: routing, QED batching, accounting, CLI."""

import pytest

from repro.cli import main
from repro.cluster import (
    ClusterSimulator,
    LeastLoadedRouter,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.cluster.node import NodeSpec, uniform_fleet as _uf
from repro.core.qed.policy import BatchPolicy
from repro.workloads.arrivals import (
    merge_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads.selection import selection_workload


def _stream(count=60, distinct=10, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


class TestScheduling:
    def test_round_robin_spreads_evenly(self, mysql_db):
        sim = ClusterSimulator(mysql_db, uniform_fleet(4),
                               RoundRobinRouter())
        m = sim.run(_stream(count=80))
        assert [n.queries for n in m.nodes] == [20, 20, 20, 20]

    def test_every_arrival_is_answered_once(self, mysql_db):
        stream = _stream(count=80)
        sim = ClusterSimulator(mysql_db, uniform_fleet(3),
                               LeastLoadedRouter())
        m = sim.run(stream)
        assert m.served == len(stream)
        answered = sorted(
            (r.sql, r.arrival_s) for r in m.responses
        )
        expected = sorted((a.sql, a.time_s) for a in stream)
        assert answered == expected

    def test_queries_never_start_before_arrival(self, mysql_db):
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               LeastLoadedRouter())
        m = sim.run(_stream(mean_s=0.005))
        assert m.served > 0
        for r in m.responses:
            assert r.start_s >= r.arrival_s - 1e-12
            assert r.completion_s > r.start_s
            assert r.response_s > 0

    def test_nodes_serve_serially(self, mysql_db):
        """Busy windows on one node never overlap."""
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               RoundRobinRouter())
        schedule = sim.schedule(_stream(mean_s=0.002))
        for node in schedule.nodes:
            for a, b in zip(node.scheduled, node.scheduled[1:]):
                assert b.start_s >= a.end_s - 1e-12

    def test_distinct_statements_execute_once(self, mysql_db):
        before = mysql_db.executions
        sim = ClusterSimulator(mysql_db, uniform_fleet(4),
                               RoundRobinRouter())
        sim.run(_stream(count=60, distinct=10))
        assert mysql_db.executions - before == 10

    def test_underclocked_nodes_run_slower(self, mysql_db):
        from repro.hardware.cpu import PvcSetting, VoltageDowngrade

        stream = uniform_arrivals(
            selection_workload(4).queries * 5, 0.01
        )
        stock = ClusterSimulator(
            mysql_db, uniform_fleet(1), RoundRobinRouter()
        ).run(stream)
        eco = ClusterSimulator(
            mysql_db,
            [NodeSpec("eco", setting=PvcSetting(
                15, VoltageDowngrade.MEDIUM
            ))],
            RoundRobinRouter(),
        ).run(stream)
        assert eco.p95_response_s > stock.p95_response_s
        assert eco.cpu_joules < stock.cpu_joules

    def test_multi_tenant_merged_stream(self, mysql_db):
        a = poisson_arrivals(selection_workload(5).queries * 4,
                             0.05, seed=1)
        b = poisson_arrivals(
            selection_workload(5, start=11).queries * 4, 0.05, seed=2
        )
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               LeastLoadedRouter())
        m = sim.run(merge_arrivals(a, b))
        assert m.served == len(a) + len(b)

    def test_empty_arrivals_produce_a_zero_run(self, mysql_db):
        """NHPP generators legitimately emit empty streams in low-rate
        windows; they must measure as zero, not crash."""
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               RoundRobinRouter())
        m = sim.run([])
        assert m.served == 0
        assert m.wall_joules == 0.0
        assert m.horizon_s == 0.0

    def test_duplicate_node_names_rejected(self, mysql_db):
        with pytest.raises(ValueError):
            ClusterSimulator(
                mysql_db,
                [NodeSpec("n"), NodeSpec("n")],
                RoundRobinRouter(),
            )


class TestQedNodes:
    def test_batches_merge_and_answer_together(self, mysql_db):
        policy = BatchPolicy(threshold=5)
        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(1, queue_policy=policy),
            RoundRobinRouter(),
        )
        stream = _stream(count=20, distinct=10)
        m = sim.run(stream)
        assert m.served == 20
        node = m.nodes[0]
        # 20 arrivals / threshold 5 -> 4 merged windows.
        completions = {r.completion_s for r in m.responses}
        assert len(completions) == 4
        assert node.queries == 20

    def test_trailing_partial_batch_flushes(self, mysql_db):
        policy = BatchPolicy(threshold=8)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(1, queue_policy=policy),
            RoundRobinRouter(),
        )
        m = sim.run(_stream(count=20, distinct=10))
        assert m.served == 20  # 8 + 8 + flushed 4

    def test_timeout_policy_dispatches_between_arrivals(self, mysql_db):
        policy = BatchPolicy(threshold=50, max_wait_s=0.5)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(1, queue_policy=policy),
            RoundRobinRouter(),
        )
        m = sim.run(_stream(count=30, mean_s=0.2))
        # The threshold is never reached; only the timeout (and the
        # final flush) can dispatch, in several windows.
        assert m.served == 30
        assert len({r.completion_s for r in m.responses}) > 1

    def test_timeout_batches_dispatch_at_expiry_not_next_arrival(
        self, mysql_db
    ):
        """Sparse arrivals: a timed-out batch fires at the oldest
        query's expiry, not when the next arrival happens to tick the
        queue -- response times must not absorb the inter-arrival gap."""
        max_wait = 0.1
        policy = BatchPolicy(threshold=100, max_wait_s=max_wait)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(1, queue_policy=policy),
            RoundRobinRouter(),
        )
        # Arrivals 5 s apart: each query times out alone long before
        # the next one shows up (the last drains via the final flush,
        # also at its own expiry).
        stream = uniform_arrivals(selection_workload(4).queries, 5.0)
        m = sim.run(stream)
        assert m.served == 4
        for r in m.responses:
            assert r.start_s == pytest.approx(
                r.arrival_s + max_wait
            )
            assert r.response_s < 1.0  # nowhere near the 5 s gap

    def test_mixed_template_batch_serves_as_singletons(self, mysql_db):
        """Regression: a QED-queued node receiving mixed templates used
        to raise NotMergeableError out of schedule(); the batch must
        degrade to back-to-back singleton executions instead."""
        queries = selection_workload(4).queries + [
            f"SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"WHERE l_quantity = {q}" for q in (11, 12)
        ]
        stream = poisson_arrivals(
            [queries[i % len(queries)] for i in range(30)], 0.02, seed=4
        )
        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(1, queue_policy=BatchPolicy(threshold=6)),
            RoundRobinRouter(),
        )
        m = sim.run(stream)  # must not raise
        assert m.served == 30
        assert m.qed is not None and m.qed.mode == "node"
        assert m.qed.fallback_batches > 0
        answered = sorted((r.sql, r.arrival_s) for r in m.responses)
        assert answered == sorted((a.sql, a.time_s) for a in stream)

    def test_singleton_batches_reuse_cached_traces(self, mysql_db):
        """Regression: a size-1 QED batch used to re-render "merged"
        SQL and execute it afresh; it must replay the per-query trace
        already in the schedule table."""
        stream = _stream(count=12, distinct=6, mean_s=5.0)
        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(
                1, queue_policy=BatchPolicy(threshold=50, max_wait_s=0.1)
            ),
            RoundRobinRouter(),
        )
        before = mysql_db.executions
        schedule = sim.schedule(stream)  # every batch times out alone
        assert mysql_db.executions - before == 6
        assert set(schedule.table) == {a.sql for a in stream}
        assert schedule.qed.singleton_windows == 12
        assert schedule.qed.merged_windows == 0

    def test_qed_node_conservation(self, mysql_db):
        policy = BatchPolicy(threshold=5)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2, queue_policy=policy),
            RoundRobinRouter(),
        )
        stream = _stream(count=40, distinct=10)
        batched = sim.run(stream, mode="batched")
        loop = sim.run(stream, mode="loop")
        assert batched.wall_joules == pytest.approx(
            loop.wall_joules, rel=1e-9
        )


class TestScheduleSnapshots:
    def test_earlier_schedule_survives_a_later_one(self, mysql_db):
        """ClusterSchedule must not alias live node state (a second
        schedule() resets the nodes)."""
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               RoundRobinRouter())
        first_stream = _stream(count=40, seed=1)
        s1 = sim.schedule(first_stream)
        reference = sim.playback(s1)
        sim.schedule(_stream(count=10, seed=2))  # resets live nodes
        replayed = sim.playback(s1)
        assert replayed.served == reference.served == 40
        assert replayed.wall_joules == reference.wall_joules
        assert [n.utilization for n in replayed.nodes] == [
            n.utilization for n in reference.nodes
        ]
        assert [r.completion_s for r in replayed.responses] == [
            r.completion_s for r in reference.responses
        ]


class TestPowerCapQueueInteraction:
    def test_powercap_rejects_qed_queues(self, mysql_db):
        """A per-node queue re-times work after routing, which would
        silently void the cap guarantee -- refuse the combination."""
        from repro.cluster import PowerCapRouter

        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(2, queue_policy=BatchPolicy(threshold=5)),
            PowerCapRouter(cap_w=460.0),
        )
        with pytest.raises(ValueError, match="QED queues"):
            sim.run(_stream(count=10))


class TestClusterCli:
    def test_cluster_command_smoke(self, capsys):
        status = main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "40", "--distinct", "8",
            "--policy", "consolidate", "--sla", "0.5",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "wall energy" in out
        assert "node00" in out and "node01" in out

    def test_cluster_powercap_command(self, capsys):
        status = main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "30", "--distinct", "5",
            "--policy", "powercap", "--cap-w", "400",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "power cap" in out
        assert "overshoot 0.00" in out

    def test_cluster_trace_cache_flag(self, capsys, tmp_path,
                                      monkeypatch):
        """A second run against a warm ``--trace-cache`` never touches
        the database and reports the same run."""
        from repro.db.engine import Database

        executed = []
        execute = Database.execute
        monkeypatch.setattr(
            Database, "execute",
            lambda db, sql: executed.append(sql) or execute(db, sql),
        )
        argv = [
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "20", "--distinct", "5",
            "--trace-cache", str(tmp_path),
        ]
        (tmp_path / "stale.npz").write_bytes(b"an older layout's entry")

        def identity(out):
            return [line for line in out.splitlines()
                    if "run id" in line or "wall energy" in line]

        assert main(argv) == 0
        assert len(executed) == 5  # each distinct statement, once
        first = identity(capsys.readouterr().out)
        assert len(first) == 2
        assert main(argv) == 0
        assert len(executed) == 5  # second run: 0 Database.execute calls
        assert identity(capsys.readouterr().out) == first

    def test_header_says_the_vectorized_engine_ran(self, capsys):
        assert main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "20", "--distinct", "5", "--policy", "spread",
        ]) == 0
        assert "policy=spread, engine=vectorized\n" in (
            capsys.readouterr().out
        )

    def test_header_says_why_the_loop_engine_ran(self, capsys):
        assert main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "20", "--distinct", "5",
            "--policy", "consolidate",
        ]) == 0
        assert (
            "policy=consolidate, engine=loop (router ConsolidateRouter "
            "has no route_chunk fast path)\n"
        ) in capsys.readouterr().out

    def test_reference_path_switches_are_gone(self, capsys):
        for flag in (["--playback", "loop"], ["--scheduler", "legacy"],
                     ["--trace-store", "columnar"]):
            with pytest.raises(SystemExit):
                main(["cluster", *flag])
            assert "unrecognized arguments" in capsys.readouterr().err


def test_uniform_fleet_names_and_validation():
    specs = _uf(3, prefix="srv")
    assert [s.name for s in specs] == ["srv00", "srv01", "srv02"]
    with pytest.raises(ValueError):
        _uf(0)
    with pytest.raises(ValueError):
        NodeSpec("x", wake_latency_s=-1.0)
    with pytest.raises(ValueError):
        NodeSpec("x", capacity=0.0)
    with pytest.raises(ValueError):
        NodeSpec("x", capacity=-0.5)
