"""Master-queue QED: partitioning, placement, conservation (ISSUE 5).

The master admission queue holds the whole arrival stream's pending
queries partitioned by mergeable template; these tests pin its
invariants: conservation (every arrival served exactly once or shed),
per-partition timeout dispatch at expiry (not at the next arrival's
clock), batched-vs-loop playback identity with master QED enabled,
template separation, pass-through singletons, and hash-split placement.
"""

import pytest

from loop_playback import loop_playback
from repro.cluster import (
    ClusterSimulator,
    ConsolidatePlacement,
    DynamicConsolidateRouter,
    HashSplitPlacement,
    LeastLoadedRouter,
    MasterQueue,
    PASSTHROUGH,
    PowerCapRouter,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.core.qed.aggregator import partition_key
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue
from repro.workloads.arrivals import poisson_arrivals, uniform_arrivals
from repro.workloads.selection import selection_workload

REL = 1e-9


def _alt_query(quantity: int) -> str:
    """A second mergeable template: different select list."""
    return (f"SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"WHERE l_quantity = {quantity}")


def _odd_query(quantity: int) -> str:
    """A non-mergeable shape (ORDER BY + LIMIT): pass-through."""
    return (f"SELECT l_orderkey FROM lineitem WHERE l_quantity = "
            f"{quantity} ORDER BY l_orderkey LIMIT 5")


def _mixed_stream(count=60, mean_s=0.02, seed=5):
    """Two mergeable templates plus a pass-through shape, interleaved."""
    base = selection_workload(8).queries
    pool = base + [_alt_query(q) for q in (11, 12, 13)] + [_odd_query(14)]
    return poisson_arrivals(
        [pool[i % len(pool)] for i in range(count)], mean_s, seed=seed
    )


def _master_sim(mysql_db, policy, nodes=3, placement=None,
                router=None, **fleet_kwargs):
    return ClusterSimulator(
        mysql_db, uniform_fleet(nodes, **fleet_kwargs),
        router if router is not None else LeastLoadedRouter(),
        master_queue=MasterQueue(policy, placement=placement),
    )


class TestPartitionKeys:
    def test_same_template_shares_a_key(self):
        a, b = selection_workload(2).queries
        assert partition_key(a) == partition_key(b)
        assert partition_key(a) is not None

    def test_different_select_lists_split(self):
        assert partition_key(selection_workload(1).queries[0]) != \
            partition_key(_alt_query(1))

    def test_non_mergeable_shapes_have_no_key(self):
        assert partition_key(_odd_query(1)) is None
        assert partition_key("SELECT l_orderkey FROM lineitem") is None
        assert partition_key("not even sql") is None
        assert partition_key(
            "SELECT COUNT(*) FROM lineitem "
            "WHERE l_quantity = 1 GROUP BY l_orderkey"
        ) is None


class TestConservation:
    def test_every_arrival_served_exactly_once(self, mysql_db):
        stream = _mixed_stream(count=80)
        sim = _master_sim(
            mysql_db, BatchPolicy(threshold=6, max_wait_s=0.3)
        )
        m = sim.run(stream)
        assert m.served == len(stream)
        assert not m.shed
        answered = sorted((r.sql, r.arrival_s) for r in m.responses)
        expected = sorted((a.sql, a.time_s) for a in stream)
        assert answered == expected

    def test_queries_never_complete_before_arrival(self, mysql_db):
        sim = _master_sim(mysql_db, BatchPolicy(threshold=5))
        m = sim.run(_mixed_stream())
        for r in m.responses:
            assert r.completion_s > r.arrival_s

    def test_hash_split_conserves_queries(self, mysql_db):
        stream = _mixed_stream(count=80)
        sim = _master_sim(
            mysql_db, BatchPolicy(threshold=8, max_wait_s=0.4),
            nodes=4, placement=HashSplitPlacement(),
        )
        m = sim.run(stream)
        assert m.served == len(stream)
        answered = sorted((r.sql, r.arrival_s) for r in m.responses)
        expected = sorted((a.sql, a.time_s) for a in stream)
        assert answered == expected
        # The split actually fans batches out across several nodes.
        assert sum(1 for n in m.nodes if n.queries > 0) > 1

    def test_consolidate_placement_with_dynamic_router(self, mysql_db):
        stream = _mixed_stream(count=80)
        sim = _master_sim(
            mysql_db, BatchPolicy(threshold=6, max_wait_s=0.3),
            nodes=4, placement=ConsolidatePlacement(),
            router=DynamicConsolidateRouter(max_backlog_s=1.0),
            wake_latency_s=1.0,
        )
        m = sim.run(stream)
        assert m.served == len(stream)
        # Fleet-wide batching concentrates work: the awake set stays
        # smaller than the fleet.
        assert m.awake_nodes < len(m.nodes)


class TestPartitioning:
    def test_templates_never_co_merge(self, mysql_db):
        """A merged window's queries all share one template."""
        sim = _master_sim(mysql_db, BatchPolicy(threshold=5))
        schedule = sim.schedule(_mixed_stream(count=80))
        for node in schedule.nodes:
            for work in node.scheduled:
                keys = {partition_key(sql) for sql, _ in work.queries}
                assert len(keys) == 1
        assert schedule.qed.fallback_batches == 0

    def test_passthrough_served_as_singletons(self, mysql_db):
        sim = _master_sim(mysql_db, BatchPolicy(threshold=5))
        m = sim.run(_mixed_stream(count=60))
        passthrough = m.qed.get(PASSTHROUGH)
        assert passthrough is not None
        assert passthrough.max_batch == 1
        assert passthrough.batches == passthrough.queries
        assert passthrough.merged_windows == 0
        # Both mergeable templates formed their own partitions.
        mergeable = [
            p for p in m.qed.partitions if p.partition != PASSTHROUGH
        ]
        assert len(mergeable) == 2
        assert all(p.merged_windows > 0 for p in mergeable)

    def test_report_mode_and_totals(self, mysql_db):
        stream = _mixed_stream(count=60)
        m = _master_sim(
            mysql_db, BatchPolicy(threshold=6, max_wait_s=0.3)
        ).run(stream)
        assert m.qed.mode == "master"
        assert m.qed.queries == len(stream)
        summary = m.summary()
        assert summary["qed_batches"] == float(m.qed.batches)


class TestTimeouts:
    def test_partition_timeout_fires_at_expiry(self, mysql_db):
        """Sparse arrivals: each batch starts at its own expiry, not at
        the next arrival's timestamp."""
        max_wait = 0.1
        sim = _master_sim(
            mysql_db, BatchPolicy(threshold=100, max_wait_s=max_wait),
            nodes=1,
        )
        stream = uniform_arrivals(selection_workload(4).queries, 5.0)
        m = sim.run(stream)
        assert m.served == 4
        for r in m.responses:
            assert r.start_s == pytest.approx(r.arrival_s + max_wait)
            assert r.response_s < 1.0  # nowhere near the 5 s gap

    def test_per_partition_expiry_is_independent(self, mysql_db):
        """Two partitions fill at different times; each fires on its
        own oldest query's clock."""
        max_wait = 0.2
        sim = _master_sim(
            mysql_db, BatchPolicy(threshold=100, max_wait_s=max_wait),
            nodes=2,
        )
        a = selection_workload(2).queries
        b = [_alt_query(q) for q in (11, 12)]
        # a-queries at 1.0 and 1.05; b-queries at 3.0 and 3.05.
        stream = (
            uniform_arrivals(a, 0.05, start_s=0.95)
            + uniform_arrivals(b, 0.05, start_s=2.95)
        )
        m = sim.run(stream)
        starts = sorted(r.start_s for r in m.responses)
        assert starts[0] == starts[1] == pytest.approx(1.0 + max_wait)
        assert starts[2] == starts[3] == pytest.approx(3.0 + max_wait)

    def test_threshold_only_queue_drains_at_end(self, mysql_db):
        sim = _master_sim(mysql_db, BatchPolicy(threshold=50), nodes=1)
        stream = poisson_arrivals(
            selection_workload(6).queries, 0.05, seed=2
        )
        m = sim.run(stream)
        assert m.served == 6  # trailing partial batch flushed
        # All six merged into the one flush -> one completion time.
        assert len({r.completion_s for r in m.responses}) == 1


class TestPlaybackIdentity:
    def test_batched_equals_loop_with_master_qed(self, mysql_db):
        sim = _master_sim(
            mysql_db, BatchPolicy(threshold=6, max_wait_s=0.3),
            nodes=4, placement=HashSplitPlacement(),
        )
        schedule = sim.schedule(_mixed_stream(count=100))
        batched = sim.playback(schedule)
        loop = loop_playback(sim, schedule)
        assert batched.wall_joules == pytest.approx(
            loop.wall_joules, rel=REL
        )
        assert batched.cpu_joules == pytest.approx(
            loop.cpu_joules, rel=REL
        )
        assert batched.edp == pytest.approx(loop.edp, rel=REL)


class TestGuards:
    def test_master_queue_excludes_node_queues(self, mysql_db):
        with pytest.raises(ValueError, match="master admission queue"):
            ClusterSimulator(
                mysql_db,
                uniform_fleet(2, queue_policy=BatchPolicy(threshold=5)),
                LeastLoadedRouter(),
                master_queue=MasterQueue(BatchPolicy(threshold=5)),
            )

    def test_master_queue_excludes_powercap(self, mysql_db):
        with pytest.raises(ValueError, match="PowerCapRouter"):
            ClusterSimulator(
                mysql_db, uniform_fleet(2), PowerCapRouter(cap_w=460.0),
                master_queue=MasterQueue(BatchPolicy(threshold=5)),
            )

    def test_consolidate_router_requires_consolidate_placement(
        self, mysql_db
    ):
        """A consolidate-family router only wakes nodes from route(),
        which the master loop never calls -- any other placement would
        funnel the whole stream onto the one awake node."""
        from repro.cluster import AdaptivePvcRouter, ConsolidateRouter

        with pytest.raises(ValueError, match="ConsolidatePlacement"):
            ClusterSimulator(
                mysql_db, uniform_fleet(4),
                ConsolidateRouter(max_backlog_s=1.0),
                master_queue=MasterQueue(BatchPolicy(threshold=5)),
            )
        # Adaptive PVC likewise only acts on routed dispatches.
        with pytest.raises(ValueError, match="ConsolidatePlacement"):
            ClusterSimulator(
                mysql_db, uniform_fleet(4),
                AdaptivePvcRouter(deadline_s=0.5),
                master_queue=MasterQueue(BatchPolicy(threshold=5)),
            )
        # The cooperating placement is accepted.
        ClusterSimulator(
            mysql_db, uniform_fleet(4),
            DynamicConsolidateRouter(max_backlog_s=1.0),
            master_queue=MasterQueue(
                BatchPolicy(threshold=5),
                placement=ConsolidatePlacement(),
            ),
        )

    def test_queue_expiry_property(self):
        queue = QueryQueue(BatchPolicy(threshold=10, max_wait_s=0.5))
        assert queue.expiry_s is None
        queue.submit("SELECT 1", 2.0)
        assert queue.expiry_s == pytest.approx(2.5)
        no_timeout = QueryQueue(BatchPolicy(threshold=10))
        no_timeout.submit("SELECT 1", 2.0)
        assert no_timeout.expiry_s is None


class TestMasterQedCli:
    def test_cluster_master_qed_command(self, capsys):
        from repro.cli import main

        status = main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "40", "--distinct", "8",
            "--qed", "master", "--qed-threshold", "5",
            "--qed-max-wait", "0.3", "--qed-placement", "hash",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "QED (master)" in out
        assert "lineitem[" in out

    def test_qed_flags_validated(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--qed", "master"]) == 2
        assert main(["cluster", "--qed-max-wait", "0.5"]) == 2
        # An explicit --qed off contradicts the threshold flag.
        assert main(
            ["cluster", "--qed", "off", "--qed-threshold", "5"]
        ) == 2
        # The threshold flag never implies a mode by itself, and
        # placement only applies to the master queue.
        assert main(["cluster", "--qed-threshold", "5"]) == 2
        assert main([
            "cluster", "--qed", "node", "--qed-threshold", "5",
            "--qed-placement", "hash",
        ]) == 2
        # --qed-threshold is the only spelling: the old per-node alias
        # is not a flag any more.
        with pytest.raises(SystemExit):
            main(["cluster", "--qed", "node", "--qed-batch", "5"])
        assert "unrecognized arguments: --qed-batch" in (
            capsys.readouterr().err
        )
        # A consolidate-family policy under the master queue needs the
        # cooperating placement.
        assert main([
            "cluster", "--qed", "master", "--qed-threshold", "5",
            "--policy", "dynamic",
        ]) == 2
        assert main([
            "cluster", "--policy", "powercap",
            "--qed", "node", "--qed-threshold", "5",
        ]) == 2
        assert main([
            "cluster", "--qed", "node", "--qed-threshold", "5",
            "--fleet", "examples/hetero_fleet.json",
        ]) == 2
        capsys.readouterr()
