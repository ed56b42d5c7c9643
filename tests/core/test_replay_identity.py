"""Execute-once / replay-many regressions.

The replay pipeline (plan cache + execution cache + vectorized trace
playback) must be numerically indistinguishable from the naive
re-execute-every-point path (``reference_sweep.py``), and its caches
must invalidate correctly on catalog and buffer-pool changes.
"""

import pytest

from reference_sweep import reference_sweep
from repro.core.pvc.sweep import PvcSweep
from repro.db.engine import Database
from repro.db.profiles import commercial_profile, mysql_profile
from repro.db.schema import ColumnDef, TableSchema
from repro.db.types import DataType
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_query

REL = 1e-9


def _assert_curves_match(naive, replayed):
    assert len(naive.all_points) == len(replayed.all_points)
    for a, b in zip(naive.all_points, replayed.all_points):
        assert a.setting == b.setting
        assert b.time_s == pytest.approx(a.time_s, rel=REL)
        assert b.energy_j == pytest.approx(a.energy_j, rel=REL)


class TestSweepReplayIdentity:
    QUERIES = [selection_query(1), selection_query(2), selection_query(1)]

    def test_full_sweep_matches_naive_path(self, mysql_db, sut):
        naive = reference_sweep(WorkloadRunner(mysql_db, sut), self.QUERIES)
        replayed = PvcSweep(
            WorkloadRunner(mysql_db, sut), self.QUERIES
        ).run()
        _assert_curves_match(naive, replayed)

    def test_full_sweep_matches_on_disk_engine(self, commercial_db, sut):
        naive = reference_sweep(
            WorkloadRunner(commercial_db, sut), self.QUERIES
        )
        replayed = PvcSweep(
            WorkloadRunner(commercial_db, sut), self.QUERIES
        ).run()
        _assert_curves_match(naive, replayed)

    def test_replay_matches_historical_pipeline_on_cold_disk_db(self, sut):
        """On a cold disk engine the first execution warms the buffer
        pool; replay must still reproduce the historical pipeline
        (execute once per point) exactly, first cold execution
        included."""
        from repro.workloads.tpch.generator import tpch_database

        queries = [selection_query(1), selection_query(2)]

        def cold_db():
            return tpch_database(
                0.002, commercial_profile(0.002), seed=0,
                tables=["lineitem"],
            )

        historical = reference_sweep(
            WorkloadRunner(cold_db(), sut), queries
        )
        replayed = PvcSweep(WorkloadRunner(cold_db(), sut), queries).run()
        _assert_curves_match(historical, replayed)

    def test_replay_sweep_executes_each_distinct_query_once(
        self, mysql_db, sut
    ):
        runner = WorkloadRunner(mysql_db, sut)
        before = mysql_db.executions
        PvcSweep(runner, self.QUERIES).run()
        # 7 settings x 3 queries = 21 replays, but only 2 distinct
        # statements ever hit the database.
        assert runner.execution_cache_misses == 2
        assert runner.execution_cache_hits == 7 * 3 - 2
        assert mysql_db.executions - before == 2
        # A second sweep on the warm cache executes nothing.
        PvcSweep(runner, self.QUERIES).run()
        assert mysql_db.executions - before == 2


def _tiny_db(profile) -> Database:
    db = Database(profile)
    db.create_table(
        TableSchema("t", [
            ColumnDef("k", DataType.INT64),
            ColumnDef("v", DataType.FLOAT64),
        ]),
        {"k": [1, 2, 3, 4], "v": [10.0, 20.0, 30.0, 40.0]},
    )
    return db


class TestPlanCacheInvalidation:
    SQL = "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k"

    def test_repeated_statements_plan_once(self):
        db = _tiny_db(mysql_profile())
        db.execute(self.SQL)
        misses = db.plan_cache_misses
        db.execute(self.SQL)
        db.execute(self.SQL)
        assert db.plan_cache_misses == misses
        assert db.plan_cache_hits >= 2

    def test_drop_and_recreate_invalidates_plan(self):
        db = _tiny_db(mysql_profile())
        before = db.execute(self.SQL).rows()
        db.drop_table("t")
        db.create_table(
            TableSchema("t", [
                ColumnDef("k", DataType.INT64),
                ColumnDef("v", DataType.FLOAT64),
            ]),
            {"k": [7], "v": [70.0]},
        )
        after = db.execute(self.SQL).rows()
        assert before != after
        assert after == [(7, 70.0)]

    def test_ast_queries_bypass_cache(self):
        db = _tiny_db(mysql_profile())
        from repro.db.sql.parser import parse

        db.plan(parse(self.SQL))
        assert self.SQL not in db._plan_cache


class TestExecutionCacheInvalidation:
    SQL = "SELECT k, v FROM t WHERE v > 15"

    def test_ddl_invalidates_cached_execution(self, sut):
        db = _tiny_db(mysql_profile())
        runner = WorkloadRunner(db, sut)
        first = runner.cached_execution(self.SQL)
        assert runner.cached_execution(self.SQL) is first
        db.drop_table("t")
        db.create_table(
            TableSchema("t", [
                ColumnDef("k", DataType.INT64),
                ColumnDef("v", DataType.FLOAT64),
            ]),
            {"k": [9, 10], "v": [90.0, 100.0]},
        )
        fresh = runner.cached_execution(self.SQL)
        assert fresh is not first
        assert fresh.result.row_count == 2

    def test_cold_trace_cache_converges_to_steady_state(self, sut):
        """Executing on a cold disk engine warms the pool; the page
        loads bump the generation, so the cached cold trace is replayed
        at most once and the cache settles on the warm trace."""
        db = _tiny_db(commercial_profile(0.001))
        runner = WorkloadRunner(db, sut)
        cold = runner.cached_execution(self.SQL)
        second = runner.cached_execution(self.SQL)
        assert second is not cold  # page loads invalidated the entry
        assert (
            second.trace.total_disk_bytes < cold.trace.total_disk_bytes
        )
        third = runner.cached_execution(self.SQL)
        assert third is second  # steady state: stable generation

    def test_cool_invalidates_disk_engine_traces(self, sut):
        db = _tiny_db(commercial_profile(0.001))
        runner = WorkloadRunner(db, sut)
        db.warm()
        warm_exec = runner.cached_execution(self.SQL)
        assert runner.cached_execution(self.SQL) is warm_exec
        db.cool()
        cold_exec = runner.cached_execution(self.SQL)
        assert cold_exec is not warm_exec
        # The cold run re-reads pages the warm run found in the pool.
        assert (
            cold_exec.trace.total_disk_bytes
            > warm_exec.trace.total_disk_bytes
        )

    def test_replay_matches_per_query_measurements(self, mysql_db, sut):
        queries = [selection_query(5), selection_query(6)]
        naive = WorkloadRunner(mysql_db, sut).run_queries(queries)
        replayed = WorkloadRunner(mysql_db, sut).replay_queries(queries)
        assert replayed.duration_s == pytest.approx(
            naive.duration_s, rel=REL
        )
        for a, b in zip(naive.per_query, replayed.per_query):
            assert b.duration_s == pytest.approx(a.duration_s, rel=REL)
            assert b.cpu_joules == pytest.approx(a.cpu_joules, rel=REL)
