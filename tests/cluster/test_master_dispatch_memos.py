"""Master-QED dispatch: parse once, merge once, execute once.

Exact-count guards (no timing) on a small master-QED + placement
scenario, plus the two properties the merged-trace memo must keep: a
schedule never depends on what the simulator scheduled before it, and a
database generation change makes the memo miss.
"""

import functools

import pytest

from repro.cluster import (
    ClusterSimulator,
    LeastLoadedRouter,
    MasterQueue,
    generate_placement,
    uniform_fleet,
)
from repro.cluster import simulator as simulator_module
from repro.core.qed import aggregator
from repro.core.qed.aggregator import merge_queries
from repro.core.qed.policy import BatchPolicy
from repro.db.profiles import commercial_profile, mysql_profile
from repro.db.sql import parser as parser_module
from repro.db.sql.parser import parse
from repro.workloads.arrivals import Arrival, poisson_arrivals
from repro.workloads.selection import selection_query, selection_workload
from repro.workloads.tpch.generator import tpch_database

SF = 0.005
NODES = 4


@pytest.fixture(scope="module")
def memory_db():
    return tpch_database(SF, mysql_profile(), seed=0, tables=("lineitem",))


@pytest.fixture(scope="module")
def disk_db():
    return tpch_database(
        SF, commercial_profile(SF), seed=0, tables=("lineitem",)
    )


def _stream(count=300, distinct=8, mean_s=0.05, seed=3):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _sim(db, threshold=8, placed=True):
    specs = uniform_fleet(NODES)
    return ClusterSimulator(
        db, specs, LeastLoadedRouter(),
        master_queue=MasterQueue(BatchPolicy(threshold, max_wait_s=2.0)),
        placement=(
            generate_placement(specs, shards=4, replicas=2) if placed
            else None
        ),
    )


def _observed(sim, schedule):
    """Everything a run reports that a stale trace would move."""
    m = sim.playback(schedule)
    return (
        m.run_id,
        [node.wall_joules for node in m.nodes],
        [r.response_s for r in m.responses],
    )


def _clear_text_memos():
    parse.cache_clear()
    aggregator._statement.cache_clear()
    aggregator.partition_key.cache_clear()


class TestExactCounts:
    def test_each_distinct_text_is_parsed_once(self, memory_db,
                                               monkeypatch):
        parsed = []
        real = parser_module._Parser.parse_select_statement

        def counting(self):
            parsed.append(1)
            return real(self)

        monkeypatch.setattr(
            parser_module._Parser, "parse_select_statement", counting
        )
        _clear_text_memos()
        stream = _stream()
        schedule = _sim(memory_db).schedule(stream)
        assert schedule.qed.merged_windows > 0
        # the table holds the distinct statements plus every distinct
        # merged statement, each parsed at most once (to be planned)
        assert 0 < len(parsed) <= len(schedule.table)
        _sim(memory_db).schedule(stream)
        assert len(parsed) <= len(schedule.table)  # nothing re-parsed

    def test_no_merge_is_discarded(self, memory_db, monkeypatch):
        merges = {}

        def counting(sqls):
            merged = merge_queries(sqls)
            assert tuple(sqls) not in merges  # once per member sequence
            merges[tuple(sqls)] = merged
            return merged

        monkeypatch.setattr(simulator_module, "merge_queries", counting)
        schedule = _sim(memory_db).schedule(_stream())
        qed = schedule.qed
        # the map splits batches, so pieces outnumber dispatches
        assert qed.merged_windows + qed.singleton_windows > qed.batches
        assert qed.fallback_batches == 0
        statements = schedule.arrivals.distinct
        codes = schedule.arrivals.sql_idx
        windows = [
            work for node in schedule.nodes for work in node.scheduled
            if len(work.queries) > 1
        ]
        assert len(windows) == qed.merged_windows
        members = [
            tuple(statements[codes[i]] for i in work.queries)
            for work in windows
        ]
        # one merge per distinct member sequence, each one used
        assert set(merges) == set(members)
        assert len(merges) < qed.merged_windows
        for work, sqls in zip(windows, members):
            fresh = merge_queries(list(sqls))
            merged = merges[sqls]
            assert work.trace_key == merged.sql == fresh.sql
            assert merged.predicates == fresh.predicates
            assert merged.routing_column == fresh.routing_column
            assert merged.routing_values == fresh.routing_values

    def test_second_schedule_executes_nothing(self, memory_db):
        sim = _sim(memory_db)
        stream = _stream()
        first = _observed(sim, sim.schedule(stream))
        executed = memory_db.executions
        second = _observed(sim, sim.schedule(stream))
        assert memory_db.executions == executed
        assert second == first
        assert all(
            compiled is not None and generation == memory_db.generation
            for generation, compiled in
            sim.runner.merged_trace_cache.values()
        )
        sim.runner.clear_execution_cache()
        assert not sim.runner.merged_trace_cache


class TestHistoryIndependence:
    """The merged SQL is the *deduplicated* disjunction, so ``(a, b,
    a)`` and ``(a, b)`` share it while their split costs differ; the
    memo's key carries the split signature so neither leaks into the
    other's schedule."""

    A, B = selection_query(3), selection_query(4)

    def _arrivals(self, queries):
        return [Arrival(sql, 0.01 * i) for i, sql in enumerate(queries)]

    def test_schedule_b_does_not_see_schedule_a(self, memory_db):
        with_dup = self._arrivals([self.A, self.B, self.A])
        without = self._arrivals([self.A, self.B])
        assert merge_queries([self.A, self.B, self.A]).sql == \
            merge_queries([self.A, self.B]).sql

        used = _sim(memory_db, threshold=3, placed=False)
        dup_schedule = used.schedule(with_dup)
        assert dup_schedule.qed.merged_windows == 1
        after_a = _observed(used, used.schedule(without))
        fresh_sim = _sim(memory_db, threshold=3, placed=False)
        fresh = _observed(fresh_sim, fresh_sim.schedule(without))
        assert after_a == fresh
        # and the duplicate's delivery copies do cost something, so a
        # leaked trace would have shown
        merged_sql = merge_queries([self.A, self.B]).sql
        assert dup_schedule.table[merged_sql].cycles.sum() > \
            fresh_sim.schedule(without).table[merged_sql].cycles.sum()
        assert len(used.runner.merged_trace_cache) == 2


@functools.cache
def _other_lineitem():
    other = tpch_database(
        SF, commercial_profile(SF), seed=1, tables=("lineitem",)
    )
    return other.catalog.table("lineitem")


def _drop_and_recreate(db):
    """Same table name, another seed's rows: a stale trace would show
    in the joules, not only in the execution count."""
    db.drop_table("lineitem")
    db.register_table(_other_lineitem())


class TestGenerationInvalidation:
    @pytest.mark.parametrize("bump", [
        lambda db: db.cool(),
        lambda db: db.warm(),
        _drop_and_recreate,
    ], ids=["cool", "warm", "drop+recreate"])
    def test_memo_misses_after_a_generation_change(self, disk_db, bump):
        stream = _stream(count=120)
        sim = _sim(disk_db)
        disk_db.warm()
        sim.schedule(stream)
        merged_traces = len(sim.runner.merged_trace_cache)
        assert merged_traces > 0
        executed = disk_db.executions
        sim.schedule(stream)
        assert disk_db.executions == executed  # warm: all memo hits
        text = stream[0].sql
        select = parse(text)

        bump(disk_db)
        reused = _observed(sim, sim.schedule(stream))
        # every distinct statement and every merged batch ran again
        assert disk_db.executions - executed == \
            len(stream.distinct) + merged_traces
        bump(disk_db)
        fresh_sim = _sim(disk_db)
        fresh = _observed(fresh_sim, fresh_sim.schedule(stream))
        assert reused == fresh
        # text -> AST is pure: the parse memo ignores generations
        assert parse(text) is select
