"""Data placement: partitioned tables, replica routing, recovery.

Covers the ISSUE-9 acceptance points: the no-placement identity (a run
without a map -- or with a vacuous fully-replicated one -- is the seed
run, summary-for-summary), shard-aware routing (statements reach only
nodes holding every shard their predicates touch, vectorized and loop
paths agreeing to <= 1e-9), the quorum constraint (consolidation never
sleeps the last awake replica of a shard), crash-triggered
re-replication (copy work billed on both endpoints, replica counts
restored), and graceful degradation when a shard loses its last live
replica (queries retry and dead-letter visibly, never vanish).
"""

import json

import pytest

from repro.cluster import (
    ClusterSimulator,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    HashSplitRouter,
    LeastLoadedRouter,
    PlacementMap,
    RetryPolicy,
    RoundRobinRouter,
    TablePlacement,
    generate_placement,
    load_placement,
    uniform_fleet,
)
from repro.cluster.placement import (
    quorum_cover,
    replication_copy_trace,
    stable_hash,
)
from repro.obs.fingerprint import describe_policy
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload

REL = 1e-9


def _stream(count=80, distinct=8, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _names(n):
    return [s.name for s in uniform_fleet(n)]


def _chained(n=4, shards=4, replicas=2, quorum=1):
    return generate_placement(_names(n), shards=shards,
                              replicas=replicas, quorum=quorum)


def _summary_sans_run_id(m):
    return {k: v for k, v in m.summary().items() if k != "run_id"}


class TestTablePlacement:
    def test_generate_chained_declustering(self):
        pm = _chained(4, shards=4, replicas=2)
        tp = pm.for_table("lineitem")
        assert tp.replica_map == (
            ("node00", "node01"), ("node01", "node02"),
            ("node02", "node03"), ("node03", "node00"),
        )

    def test_generate_majority_quorum(self):
        pm = generate_placement(_names(4), shards=2, replicas=3,
                                quorum="majority")
        assert pm.for_table("lineitem").quorum == 2

    def test_generate_rejects_oversized_replication(self):
        with pytest.raises(ValueError, match="replicas"):
            generate_placement(_names(2), shards=2, replicas=3)

    def test_hash_shard_of_is_stable(self):
        tp = _chained().for_table("lineitem")
        assert tp.shard_of(5) == stable_hash(5) % tp.shards
        assert tp.shard_of(5) == tp.shard_of(5)

    def test_range_shard_of_uses_bounds(self):
        tp = TablePlacement(
            "lineitem", "l_quantity", shards=3, replicas=1,
            replica_map=(("a",), ("b",), ("c",)),
            kind="range", bounds=(5, 10),
        )
        assert tp.shard_of(3) == 0
        assert tp.shard_of(5) == 1
        assert tp.shard_of(12) == 2

    def test_range_bounds_validated(self):
        with pytest.raises(ValueError, match="ascending"):
            TablePlacement(
                "t", "c", shards=3, replicas=1,
                replica_map=(("a",), ("b",), ("c",)),
                kind="range", bounds=(10, 5),
            )

    def test_replica_map_shape_validated(self):
        with pytest.raises(ValueError, match="replica"):
            TablePlacement(
                "t", "c", shards=2, replicas=2,
                replica_map=(("a", "b"), ("a",)),
            )

    def test_quorum_bounds_validated(self):
        with pytest.raises(ValueError, match="quorum"):
            TablePlacement(
                "t", "c", shards=1, replicas=2,
                replica_map=(("a", "b"),), quorum=3,
            )

    def test_round_trip_and_load(self, tmp_path):
        pm = _chained(4, shards=4, replicas=2)
        again = PlacementMap.from_dict(pm.to_dict())
        assert again.to_dict() == pm.to_dict()
        path = tmp_path / "placement.json"
        path.write_text(json.dumps(pm.to_dict()))
        assert load_placement(path).to_dict() == pm.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        doc = _chained().to_dict()
        doc["tables"][0]["sharding"] = "extra"
        with pytest.raises(ValueError, match="unknown"):
            PlacementMap.from_dict(doc)


class TestRequiredShards:
    def test_equality_narrows_to_one_shard(self):
        pm = _chained()
        tp = pm.for_table("lineitem")
        req = pm.required_shards(
            "SELECT l_orderkey FROM lineitem WHERE l_quantity = 5"
        )
        assert req == frozenset({("lineitem", tp.shard_of(5))})

    def test_in_list_unions_shards(self):
        pm = _chained()
        tp = pm.for_table("lineitem")
        req = pm.required_shards(
            "SELECT * FROM lineitem WHERE l_quantity IN (1, 2, 3)"
        )
        assert req == frozenset(
            ("lineitem", tp.shard_of(v)) for v in (1, 2, 3)
        )

    def test_or_unions_and_intersects(self):
        pm = _chained()
        tp = pm.for_table("lineitem")
        either = pm.required_shards(
            "SELECT * FROM lineitem "
            "WHERE l_quantity = 1 OR l_quantity = 3"
        )
        assert either == frozenset(
            ("lineitem", tp.shard_of(v)) for v in (1, 3)
        )
        both = pm.required_shards(
            "SELECT * FROM lineitem "
            "WHERE l_quantity = 1 AND l_orderkey > 0"
        )
        assert both == frozenset({("lineitem", tp.shard_of(1))})

    def test_no_predicate_needs_every_shard(self):
        pm = _chained()
        req = pm.required_shards("SELECT count(*) FROM lineitem")
        assert req == frozenset(
            ("lineitem", s) for s in range(4)
        )

    def test_unplaced_table_is_unconstrained(self):
        assert _chained().required_shards(
            "SELECT * FROM orders"
        ) is None

    def test_unparseable_sql_degrades_to_all_shards(self):
        req = _chained().required_shards("NOT VALID SQL AT ALL")
        assert req == frozenset(
            ("lineitem", s) for s in range(4)
        )


class TestPlacementIdentity:
    """A vacuous (fully replicated) map routes exactly like no map."""

    @pytest.mark.parametrize("router_factory", [
        RoundRobinRouter,
        LeastLoadedRouter,
        HashSplitRouter,
        lambda: ConsolidateRouter(max_backlog_s=0.5),
        lambda: DynamicConsolidateRouter(max_backlog_s=0.5),
    ])
    def test_full_replication_is_identity(self, mysql_db,
                                          router_factory):
        stream = _stream()
        full = generate_placement(_names(4), shards=1, replicas=4)
        with_map = ClusterSimulator(
            mysql_db, uniform_fleet(4), router_factory(),
            placement=full,
        ).run(stream)
        without = ClusterSimulator(
            mysql_db, uniform_fleet(4), router_factory(),
        ).run(stream)
        assert (_summary_sans_run_id(with_map)
                == _summary_sans_run_id(without))
        assert [r.completion_s for r in with_map.responses] == [
            r.completion_s for r in without.responses
        ]
        # The map is part of the run's identity even when vacuous.
        assert with_map.run_id != without.run_id

    def test_no_placement_leaves_router_fingerprint_alone(self,
                                                          mysql_db):
        # ``_install_placement`` must not create a ``placement``
        # instance attribute on the router when there is no map: it
        # would surface as ``placement: None`` in ``describe_policy``
        # and shift the run id of every placement-free run vs the seed.
        router = DynamicConsolidateRouter(max_backlog_s=0.5)
        ClusterSimulator(mysql_db, uniform_fleet(4), router).run(
            _stream()
        )
        assert "placement" not in describe_policy(router)
        assert "placement" not in vars(router)

    def test_unknown_placement_node_rejected(self, mysql_db):
        pm = generate_placement(["ghost", "node00"], shards=2,
                                replicas=1)
        with pytest.raises(ValueError, match="unknown"):
            ClusterSimulator(mysql_db, uniform_fleet(2),
                             RoundRobinRouter(), placement=pm)


class TestVectorizedWithPlacement:
    def _assert_identical(self, fast, slow):
        assert fast.served == slow.served
        assert fast.wall_joules == pytest.approx(
            slow.wall_joules, rel=REL
        )
        assert fast.peak_power_w == pytest.approx(
            slow.peak_power_w, rel=REL
        )
        for f, s in zip(fast.nodes, slow.nodes):
            assert f.name == s.name and f.queries == s.queries
            assert f.busy_s == pytest.approx(s.busy_s, rel=REL,
                                             abs=1e-12)
            assert f.wall_joules == pytest.approx(s.wall_joules,
                                                  rel=REL)
        for q in (0.5, 0.95, 0.99):
            assert fast.response_percentile(q) == pytest.approx(
                slow.response_percentile(q), rel=REL
            )

    @pytest.mark.parametrize("router_factory", [
        LeastLoadedRouter, HashSplitRouter, RoundRobinRouter,
    ])
    def test_masked_chunk_matches_loop(self, mysql_db,
                                       router_factory):
        stream = _stream(count=120)
        pm = _chained(4, shards=4, replicas=2)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4), router_factory(), placement=pm,
        )
        assert sim.vectorized_ineligibility() is None
        fast = sim.run(stream, vectorized=True)
        slow = ClusterSimulator(
            mysql_db, uniform_fleet(4), router_factory(),
            placement=pm,
        ).run(stream, vectorized=False)
        self._assert_identical(fast, slow)

    @pytest.mark.parametrize("router_factory", [
        LeastLoadedRouter, HashSplitRouter, RoundRobinRouter,
    ])
    def test_statement_no_node_holds_is_shed_on_both_engines(
            self, mysql_db, router_factory):
        """With one replica per shard, a range predicate and a two-value
        ``IN`` need shards no single node holds.  The default engine is
        still the vectorized one, and it sheds those arrivals exactly
        as the loop refuses them."""
        equality = selection_workload(6).queries
        select = equality[0].split(" WHERE ")[0]
        queries = equality + [
            f"{select} WHERE l_quantity < 5",
            f"{select} WHERE l_quantity IN (7, 30)",
        ]
        stream = poisson_arrivals(
            [queries[i % len(queries)] for i in range(120)], 0.05, seed=3
        )
        pm = _chained(4, shards=4, replicas=1)
        runs = {}
        for vectorized in (None, False):
            sim = ClusterSimulator(
                mysql_db, uniform_fleet(4), router_factory(), placement=pm,
            )
            assert sim.vectorized_ineligibility() is None
            schedule = sim.schedule(stream, vectorized=vectorized)
            runs[schedule.engine] = sim.playback(schedule)
        fast, slow = runs["vectorized"], runs["loop"]
        assert len(slow.shed) == 30
        assert fast.shed == slow.shed
        assert fast.run_id == slow.run_id
        assert fast.horizon_s == slow.horizon_s
        assert [n.queries for n in fast.nodes] == [
            n.queries for n in slow.nodes
        ]
        for f, s in zip(fast.nodes, slow.nodes):
            assert f.wall_joules == pytest.approx(s.wall_joules, rel=REL)


class TestQuorum:
    def test_consolidate_prepare_covers_quorum(self, mysql_db):
        """ConsolidateRouter's initial awake set must hold a full
        quorum, not just node zero: every cover node starts awake and
        never sleeps."""
        pm = _chained(4, shards=4, replicas=2)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=5.0),
            ConsolidateRouter(max_backlog_s=5.0), placement=pm,
        )
        m = sim.run(_stream(count=40))
        assert m.served == 40
        cover = quorum_cover(pm, sim.nodes)
        assert len(cover) > 1  # the map genuinely widens the seed set
        by_name = {n.name: n for n in m.nodes}
        for name in cover:
            assert by_name[name].sleep_s == 0.0, name

    def test_dynamic_never_sleeps_last_replica(self, mysql_db):
        """Satellite 5 regression: a hot shard whose only replica
        lives on a sleepable node must keep that node awake."""
        pm = PlacementMap((
            TablePlacement(
                "lineitem", "l_quantity", shards=2, replicas=1,
                replica_map=(("node00",), ("node01",)),
            ),
        ))
        queries = selection_workload(8).queries
        tp = pm.for_table("lineitem")
        # keep only queries that actually hit node01's shard hot
        stream = poisson_arrivals(
            [q for i, q in enumerate(
                [queries[i % 8] for i in range(60)]
            )], 0.1, seed=3,
        )
        router = DynamicConsolidateRouter(
            max_backlog_s=2.0, target_utilization=0.9, min_awake=1
        )
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2, wake_latency_s=0.5), router,
            placement=pm,
        ).run(stream)
        assert m.served == 60 and not m.shed
        # both nodes are sole holders of a live shard: neither may
        # ever be asleep
        for n in m.nodes:
            assert n.sleep_s == 0.0, n.name
        # the same config *without* the quorum constraint does sleep
        # (proving the placement guard, not a lazy router, kept both
        # awake)
        base = ClusterSimulator(
            mysql_db, uniform_fleet(2, wake_latency_s=0.5),
            DynamicConsolidateRouter(
                max_backlog_s=2.0, target_utilization=0.9,
                min_awake=1,
            ),
        ).run(stream)
        assert any(n.sleep_s > 0.0 for n in base.nodes)
        assert tp.quorum == 1


class TestReReplication:
    def _crash_plan(self, at_s=1.0, recover_s=3.0):
        return FaultPlan([
            FaultSpec("crash", "node00", at_s=at_s,
                      recover_s=recover_s),
        ])

    def test_crash_restores_replication(self, mysql_db):
        pm = _chained(4, shards=4, replicas=2)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(4), LeastLoadedRouter(),
            placement=pm, faults=self._crash_plan(),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.05),
        )
        stream = _stream(count=80)
        m = sim.run(stream)
        f = m.faults
        assert f.re_replications >= 1
        assert f.copy_s > 0.0 and f.copy_joules > 0.0
        # conservation: every arrival served or visibly dead-lettered
        outcomes = sorted(
            [(r.sql, r.arrival_s) for r in m.responses]
            + [(s.sql, s.arrival_s) for s in m.shed]
        )
        assert outcomes == sorted(
            (a.sql, a.time_s) for a in stream
        )
        assert len(m.shed) == f.dead_lettered
        # replica conservation: every shard is back at (or above) its
        # target on live nodes by the horizon
        tp = pm.for_table("lineitem")
        for shard in range(tp.shards):
            holders = [
                n for n in sim.nodes
                if n.crashed_s is None and n.shards is not None
                and ("lineitem", shard) in n.shards
            ]
            assert len(holders) >= tp.replicas, shard

    def test_copy_energy_billed_on_both_endpoints(self, mysql_db):
        pm = _chained(4, shards=4, replicas=2)
        base = ClusterSimulator(
            mysql_db, uniform_fleet(4), LeastLoadedRouter(),
            placement=pm,
        ).run(_stream(count=80))
        crashed = ClusterSimulator(
            mysql_db, uniform_fleet(4), LeastLoadedRouter(),
            placement=pm, faults=self._crash_plan(),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.05),
        ).run(_stream(count=80))
        # node00 held 2 shards (chained): both re-replicate, so the
        # report carries 2 copies x 2 endpoints of busy work
        assert crashed.faults.re_replications == 2
        assert crashed.faults.copy_joules > 0.0
        assert base.faults is None

    def test_no_live_source_degrades_gracefully(self, mysql_db):
        """A shard whose only replica crashed (and never recovers)
        cannot re-replicate; its queries retry, then dead-letter --
        they are never silently dropped."""
        pm = PlacementMap((
            TablePlacement(
                "lineitem", "l_quantity", shards=2, replicas=1,
                replica_map=(("node00",), ("node01",)),
            ),
        ))
        plan = FaultPlan([
            FaultSpec("crash", "node00", at_s=0.3),
        ])
        stream = _stream(count=60, distinct=8, mean_s=0.05)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2), LeastLoadedRouter(),
            placement=pm, faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.05),
        )
        m = sim.run(stream)
        f = m.faults
        assert f.re_replications == 0  # no live source exists
        assert len(m.shed) > 0  # the dead shard's queries dead-letter
        assert m.served + len(m.shed) == len(stream)
        assert len(m.shed) == f.dead_lettered
        outcomes = sorted(
            [(r.sql, r.arrival_s) for r in m.responses]
            + [(s.sql, s.arrival_s) for s in m.shed]
        )
        assert outcomes == sorted(
            (a.sql, a.time_s) for a in stream
        )

    def test_copy_trace_scales_with_bytes(self):
        small = replication_copy_trace(1 << 16)
        large = replication_copy_trace(1 << 24)
        assert large.bytes_total.sum() > small.bytes_total.sum()
        assert large.cycles.sum() > small.cycles.sum()
        # read + ship + write, on both compiled forms
        assert len(small) == len(large) == 3
