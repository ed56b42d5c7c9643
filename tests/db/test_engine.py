"""Database facade: end-to-end behaviour, traces, buffer management."""

import dataclasses

import numpy as np
import pytest

import eager_gather
from repro.core.qed.aggregator import merge_queries
from repro.core.qed.splitter import split_result
from repro.db.cost_model import server_cycles
from repro.db.engine import Database
from repro.db.errors import CatalogError
from repro.db.profiles import (
    commercial_profile,
    mysql_profile,
    profile_by_name,
)
from repro.db.schema import ColumnDef, TableSchema
from repro.db.types import DataType
from repro.hardware.trace import CpuWork, DiskAccess, Idle
from repro.workloads.selection import selection_workload
from repro.workloads.tpch.generator import tpch_database
from repro.workloads.tpch.queries import Q5_TABLES, q5_paper_workload


@pytest.fixture()
def db() -> Database:
    db = Database(mysql_profile())
    db.create_table(
        TableSchema("t", [
            ColumnDef("a", DataType.INT64),
            ColumnDef("b", DataType.FLOAT64),
        ]),
        {"a": [1, 2, 3, 4], "b": [0.5, 1.5, 2.5, 3.5]},
    )
    return db


class TestDatabase:
    def test_execute_returns_counters(self, db):
        result = db.execute("SELECT a FROM t WHERE a > 1")
        assert result.row_count == 3
        assert result.stats.total_comparisons == 4
        assert result.stats.output_rows == 3

    def test_drop_table(self, db):
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.catalog.table("t")

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table(
                TableSchema("t", [ColumnDef("a", DataType.INT64)]),
                {"a": [1]},
            )

    def test_result_size_bytes(self, db):
        result = db.execute("SELECT a, b FROM t")
        assert result.size_bytes == 4 * (8 + 8)

    def test_scalar_helper(self, db):
        assert db.execute("SELECT COUNT(*) AS n FROM t").scalar() == 4
        with pytest.raises(ValueError):
            db.execute("SELECT a FROM t").scalar()


class TestTraces:
    def test_memory_engine_trace_is_pure_cpu(self, db):
        result = db.execute("SELECT a FROM t")
        trace = db.trace_for(result)
        kinds = {type(seg) for seg in trace}
        assert kinds == {CpuWork}

    def test_cycles_scale_with_counters(self, db):
        small = db.execute("SELECT a FROM t WHERE a > 3")
        large = db.execute("SELECT a FROM t")
        assert db.server_cycles_for(large) > db.server_cycles_for(small)

    def test_cost_model_components(self, db):
        result = db.execute("SELECT a FROM t WHERE a > 1")
        profile = db.profile
        cycles = server_cycles(profile, result.stats)
        expected = (
            profile.query_overhead_cycles
            + 4 * profile.cycles_per_row_scan
            + 4 * profile.cycles_per_comparison
            + 3 * profile.cycles_per_output_row
        )
        assert cycles == pytest.approx(expected)

    def test_commercial_trace_has_disk_and_stall(self):
        db = Database(commercial_profile(0.01))
        db.create_table(
            TableSchema("u", [ColumnDef("a", DataType.INT64)]),
            {"a": list(range(10_000))},
        )
        db.warm()
        result = db.execute("SELECT a FROM u WHERE a > 5000")
        trace = db.trace_for(result)
        kinds = {type(seg) for seg in trace}
        assert DiskAccess in kinds   # temp/log writes
        assert Idle in kinds         # stall time


class TestBufferManagement:
    def test_cool_then_warm(self):
        db = Database(commercial_profile(0.01))
        db.create_table(
            TableSchema("u", [ColumnDef("a", DataType.INT64)]),
            {"a": list(range(50_000))},
        )
        cold = db.execute("SELECT a FROM u WHERE a = 1")
        cold_io = sum(
            s.bytes_total for s in cold.stats.io_log
            if s.label.startswith("scan")
        )
        warm = db.execute("SELECT a FROM u WHERE a = 1")
        warm_io = sum(
            s.bytes_total for s in warm.stats.io_log
            if s.label.startswith("scan")
        )
        assert cold_io > 0
        assert warm_io == 0
        db.cool()
        again = db.execute("SELECT a FROM u WHERE a = 1")
        again_io = sum(
            s.bytes_total for s in again.stats.io_log
            if s.label.startswith("scan")
        )
        assert again_io == pytest.approx(cold_io)

    def test_memory_engine_warm_noop(self, db):
        db.warm()  # must not raise


class TestProfiles:
    def test_profile_by_name(self):
        assert profile_by_name("mysql").storage == "memory"
        assert profile_by_name("commercial").storage == "disk"
        with pytest.raises(ValueError):
            profile_by_name("oracle")

    def test_scaled_memory(self):
        base = commercial_profile(1.0)
        half = commercial_profile(0.5)
        assert half.work_mem_bytes == base.work_mem_bytes // 2
        assert half.buffer_pool_bytes == base.buffer_pool_bytes // 2

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            commercial_profile(0.0)

    def test_workload_classes(self):
        assert mysql_profile().workload_class == "cpu_bound"
        assert commercial_profile().workload_class == "io_mixed"


def _outcomes(db: Database, statements: list[str]) -> list[tuple]:
    """Everything an execution hands on: rows, counters, trace arrays."""
    out = []
    for sql in statements:
        result = db.execute(sql)
        compiled = db.trace_for(result).compiled()
        out.append((
            result.names, result.rows(), result.stats,
            [(f.name, getattr(compiled, f.name))
             for f in dataclasses.fields(compiled)],
        ))
    return out


def _assert_same(lazy: list[tuple], eager: list[tuple]) -> None:
    assert len(lazy) == len(eager)
    for (names, rows, stats, arrays), want in zip(lazy, eager):
        assert (names, rows, stats) == want[:3]
        for (field, got), (_, expected) in zip(arrays, want[3]):
            if isinstance(got, np.ndarray):
                assert got.dtype == expected.dtype, field
                assert np.array_equal(got, expected), field
            else:
                assert got == expected, field


class TestLateMaterializationIdentity:
    """Executions with lazy columns equal those with the eager per-column
    copy (``eager_gather``): rows, every operator's counters and I/O, and
    the compiled trace, from the same fresh (cold) database."""

    SF = 0.01

    def _both(self, monkeypatch, make_db, statements):
        lazy = _outcomes(make_db(), statements)
        with monkeypatch.context() as mp:
            eager_gather.patched(mp)
            eager = _outcomes(make_db(), statements)
        _assert_same(lazy, eager)
        return lazy

    #: Below Q5's five 24-byte result rows: every join and the sort spill.
    TINY_WORK_MEM = 64

    @pytest.mark.parametrize("profile", [
        commercial_profile(SF),
        mysql_profile(),
        dataclasses.replace(commercial_profile(SF),
                            work_mem_bytes=TINY_WORK_MEM),
    ], ids=["commercial", "mysql", "commercial-spilling"])
    def test_q5_paper_workload(self, monkeypatch, profile):
        runs = self._both(
            monkeypatch,
            lambda: tpch_database(self.SF, profile, tables=Q5_TABLES),
            q5_paper_workload(),
        )
        labels = {a.label for _, _, stats, _ in runs for a in stats.io_log}
        if profile.work_mem_bytes == self.TINY_WORK_MEM:
            assert {"hashjoin:write", "sort:write"} <= labels

    def test_selection_workload_and_its_merged_statement(self, monkeypatch):
        queries = selection_workload(50).queries
        merged = merge_queries(queries)

        def make_db():
            return tpch_database(self.SF, mysql_profile(),
                                 tables=["lineitem"])

        self._both(monkeypatch, make_db, queries + [merged.sql])
        split = [r.rows() for r in split_result(
            merged, make_db().execute(merged.sql)).results]
        with monkeypatch.context() as mp:
            eager_gather.patched(mp)
            eager = [r.rows() for r in split_result(
                merged, make_db().execute(merged.sql)).results]
        assert split == eager
        assert sum(map(len, split)) > 0

