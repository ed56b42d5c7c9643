"""Execution-cache memory behavior: result eviction and the trace cache."""

import pytest

from repro.core.qed.aggregator import merge_queries
from repro.core.qed.executor import QedExecutor
from repro.db.profiles import mysql_profile
from repro.workloads.runner import TraceCache, WorkloadRunner
from repro.workloads.selection import selection_query
from repro.workloads.tpch.generator import tpch_database

REL = 1e-9


class TestResultEviction:
    QUERIES = [selection_query(1), selection_query(2)]

    def test_replay_evicts_result_rows(self, mysql_db, sut):
        runner = WorkloadRunner(mysql_db, sut)
        runner.replay_queries(self.QUERIES)
        for sql in self.QUERIES:
            _, execution = runner._execution_cache[sql]
            assert execution.result is None  # rows gone
            assert execution.compiled_trace() is not None  # replay intact

    def test_keep_result_recovers_after_eviction(self, mysql_db, sut):
        runner = WorkloadRunner(mysql_db, sut)
        sql = self.QUERIES[0]
        runner.cached_execution(sql, keep_result=False)
        misses = runner.execution_cache_misses
        recovered = runner.cached_execution(sql, keep_result=True)
        assert recovered.result is not None
        assert runner.execution_cache_misses == misses + 1  # re-executed

    def test_eviction_does_not_change_measurements(self, mysql_db, sut):
        keep = WorkloadRunner(mysql_db, sut)
        keep_m = keep.run_queries(self.QUERIES)
        evict = WorkloadRunner(mysql_db, sut)
        evict_m = evict.replay_queries(self.QUERIES)
        assert evict_m.duration_s == pytest.approx(
            keep_m.duration_s, rel=REL
        )
        assert evict_m.cpu_joules == pytest.approx(
            keep_m.cpu_joules, rel=REL
        )

    def test_qed_still_splits_after_a_replay_sweep(self, mysql_db, sut):
        """The splitter is the one result consumer; a sweep's evictions
        must not break a later QED comparison on the same runner."""
        runner = WorkloadRunner(mysql_db, sut)
        runner.replay_queries(self.QUERIES)
        comparison = QedExecutor(runner).compare(self.QUERIES)
        assert len(comparison.batched.split.results) == len(self.QUERIES)

    def test_release_is_idempotent_and_cached_entry_stays(
        self, mysql_db, sut
    ):
        runner = WorkloadRunner(mysql_db, sut)
        sql = self.QUERIES[0]
        first = runner.cached_execution(sql, keep_result=False)
        first.release_result()
        again = runner.cached_execution(sql, keep_result=False)
        assert again is first  # still a cache hit


class TestTraceCache:
    SQL = selection_query(3)

    def _db(self):
        return tpch_database(0.002, mysql_profile(), seed=0,
                             tables=["lineitem"])

    def test_second_process_skips_execution(self, sut, tmp_path):
        cache = TraceCache(tmp_path, namespace="sf0.002")
        db1 = self._db()
        runner1 = WorkloadRunner(db1, sut, trace_cache=cache)
        runner1.cached_execution(self.SQL, keep_result=False)
        assert db1.executions == 1
        assert cache.misses == 1

        # A fresh database/runner models a new process: the compiled
        # trace comes off disk, the database is never touched.
        db2 = self._db()
        runner2 = WorkloadRunner(db2, sut, trace_cache=cache)
        restored = runner2.cached_execution(self.SQL, keep_result=False)
        assert db2.executions == 0
        assert cache.hits == 1
        assert restored.result is None

        direct = runner1.cached_execution(self.SQL, keep_result=False)
        replayed_a = runner1.run_execution(direct)
        replayed_b = runner2.run_execution(restored)
        assert replayed_b.duration_s == replayed_a.duration_s
        assert replayed_b.wall_joules == replayed_a.wall_joules

    def test_keep_result_callers_bypass_disk_cache(self, sut, tmp_path):
        cache = TraceCache(tmp_path, namespace="sf0.002")
        WorkloadRunner(self._db(), sut, trace_cache=cache
                       ).cached_execution(self.SQL, keep_result=False)
        db = self._db()
        runner = WorkloadRunner(db, sut, trace_cache=cache)
        execution = runner.cached_execution(self.SQL, keep_result=True)
        assert db.executions == 1  # disk entry has no result rows
        assert execution.result is not None

    def _warm_then_cool(self, sut, cache):
        """One runner's warm execution, a ``cool()``, its cold one."""
        from repro.db.profiles import commercial_profile

        db = tpch_database(0.002, commercial_profile(0.002), seed=0,
                           tables=["lineitem"])
        db.warm()
        runner = WorkloadRunner(db, sut, trace_cache=cache)
        warm_exec = runner.cached_execution(self.SQL, keep_result=False)
        db.cool()  # bumps the generation; disk entry is now stale
        cold_exec = runner.cached_execution(self.SQL, keep_result=False)
        assert db.executions == 2  # re-executed, not served from disk
        return warm_exec.compiled_trace(), cold_exec.compiled_trace()

    def test_generation_bump_bypasses_stale_disk_entry(
        self, sut, tmp_path
    ):
        """An in-process generation change (warm/cool/DDL) must force a
        fresh execution even when the old trace sits on disk."""
        warm, cold = self._warm_then_cool(
            sut, TraceCache(tmp_path, namespace="gen")
        )
        assert cold.bytes_total.sum() > warm.bytes_total.sum()

    def test_later_process_reads_the_first_trace_after_a_bump(
        self, sut, tmp_path
    ):
        """First writer wins on disk: the cold re-execution's ``put`` is
        ignored, so a later process under the *same* namespace is handed
        the warm trace.  The namespace -- not the store -- must encode
        warm/cold state."""
        warm, cold = self._warm_then_cool(
            sut, TraceCache(tmp_path, namespace="gen")
        )
        db = self._db()
        later = WorkloadRunner(
            db, sut, trace_cache=TraceCache(tmp_path, namespace="gen")
        ).cached_execution(self.SQL, keep_result=False).compiled_trace()
        assert db.executions == 0
        assert later.bytes_total.sum() == warm.bytes_total.sum()
        assert later.bytes_total.sum() != cold.bytes_total.sum()

    def test_corrupt_entry_reads_as_miss_and_heals(self, sut, tmp_path):
        """An entry whose rows are gone (crashed writer, torn copy)
        must come back as a miss -- and the recompute's put must heal
        it, not leave the key failing forever."""
        cache = TraceCache(tmp_path, namespace="corrupt")
        runner = WorkloadRunner(self._db(), sut, trace_cache=cache)
        runner.cached_execution(self.SQL, keep_result=False)
        key = runner._trace_key_prefix + self.SQL
        assert cache.get(key) is not None
        cache.rows_path.write_bytes(b"")
        fresh = TraceCache(tmp_path, namespace="corrupt")
        assert fresh.get(key) is None
        assert (fresh.hits, fresh.misses) == (0, 1)
        db = self._db()
        WorkloadRunner(db, sut, trace_cache=fresh
                       ).cached_execution(self.SQL, keep_result=False)
        assert db.executions == 1  # recomputed ...
        db2 = self._db()
        WorkloadRunner(
            db2, sut, trace_cache=TraceCache(tmp_path, namespace="corrupt")
        ).cached_execution(self.SQL, keep_result=False)
        assert db2.executions == 0  # ... and the entry is whole again

    def test_put_is_atomic_leaves_no_temp_files(self, sut, tmp_path):
        cache = TraceCache(tmp_path, namespace="atomic")
        runner = WorkloadRunner(self._db(), sut, trace_cache=cache)
        runner.cached_execution(self.SQL, keep_result=False)
        assert runner._trace_key_prefix + self.SQL in cache
        assert sorted(tmp_path.iterdir()) == sorted(
            [cache.rows_path, cache.index_path, cache._lock_path]
        )

    def test_namespaces_do_not_collide(self, sut, tmp_path):
        a = TraceCache(tmp_path, namespace="a")
        b = TraceCache(tmp_path, namespace="b")
        WorkloadRunner(self._db(), sut, trace_cache=a
                       ).cached_execution(self.SQL, keep_result=False)
        db = self._db()
        WorkloadRunner(db, sut, trace_cache=b
                       ).cached_execution(self.SQL, keep_result=False)
        assert db.executions == 1  # namespace b saw nothing from a
        db2 = self._db()
        WorkloadRunner(db2, sut, trace_cache=a
                       ).cached_execution(self.SQL, keep_result=False)
        assert db2.executions == 0  # same namespace hits

    def test_client_model_config_keys_the_cache(self, sut, tmp_path):
        """Persisted traces embed client work; a runner with a
        different client configuration must not inherit them."""
        from repro.workloads.client import ClientModel

        cache = TraceCache(tmp_path, namespace="c")
        WorkloadRunner(self._db(), sut, trace_cache=cache
                       ).cached_execution(self.SQL, keep_result=False)
        db = self._db()
        other = WorkloadRunner(
            db, sut, client=ClientModel(cycles_per_row_fetch=999.0),
            trace_cache=cache,
        )
        other.cached_execution(self.SQL, keep_result=False)
        assert db.executions == 1  # re-executed under its own client

    def test_qed_merged_statement_roundtrips(self, sut, tmp_path):
        """Merged disjunctive statements cache like any other SQL."""
        cache = TraceCache(tmp_path, namespace="m")
        merged = merge_queries([selection_query(1), selection_query(2)])
        runner = WorkloadRunner(self._db(), sut, trace_cache=cache)
        runner.cached_execution(merged.sql, keep_result=False)
        db = self._db()
        restored = WorkloadRunner(db, sut, trace_cache=cache)
        restored.cached_execution(merged.sql, keep_result=False)
        assert db.executions == 0  # served from disk
