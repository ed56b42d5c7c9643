"""Result accessors and trace building details."""

import pytest

from repro.db.cost_model import build_trace
from repro.db.engine import Database
from repro.db.profiles import commercial_profile, mysql_profile
from repro.db.results import QueryResult
from repro.db.schema import ColumnDef, TableSchema
from repro.db.types import Column, DataType
from repro.hardware.trace import CpuWork, DiskAccess, Idle


@pytest.fixture()
def db() -> Database:
    db = Database(mysql_profile())
    db.create_table(
        TableSchema("t", [
            ColumnDef("a", DataType.INT64),
            ColumnDef("g", DataType.STRING),
        ]),
        {"a": list(range(100)), "g": [f"g{i % 3}" for i in range(100)]},
    )
    return db


class TestQueryResult:
    def test_column_lookup(self):
        result = QueryResult(
            names=["a"],
            columns=[Column.from_values(DataType.INT64, [1, 2])],
        )
        assert list(result.column("a").raw()) == [1, 2]
        with pytest.raises(KeyError):
            result.column("b")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QueryResult(names=["a", "b"], columns=[])

    def test_empty_result_rows(self):
        result = QueryResult(names=[], columns=[])
        assert result.rows() == []
        assert result.row_count == 0


class TestTraceBuilding:
    def test_mysql_trace_has_no_stall_or_temp(self, db):
        result = db.execute("SELECT a FROM t WHERE a > 50")
        trace = build_trace(db.profile, result.stats)
        labels = [getattr(s, "label", "") for s in trace]
        assert not any("stall" in lbl for lbl in labels)
        assert not any("temp" in lbl for lbl in labels)

    def test_commercial_trace_segment_order(self):
        db = Database(commercial_profile(0.01))
        db.create_table(
            TableSchema("u", [ColumnDef("a", DataType.INT64)]),
            {"a": list(range(20_000))},
        )
        db.warm()
        result = db.execute("SELECT a FROM u WHERE a > 5")
        trace = build_trace(db.profile, result.stats, label="x")
        kinds = [type(s) for s in trace.segments]
        # CPU first, then temp I/O (+ any scan I/O), stall last.
        assert kinds[0] is CpuWork
        assert kinds[-1] is Idle
        assert DiskAccess in kinds
        labels = [getattr(s, "label", "") for s in trace]
        assert any(lbl == "x:temp" for lbl in labels)
        assert any(lbl == "x:stall" for lbl in labels)

    def test_temp_bytes_scale_with_rows(self):
        db = Database(commercial_profile(0.01))
        db.create_table(
            TableSchema("u", [ColumnDef("a", DataType.INT64)]),
            {"a": list(range(20_000))},
        )
        db.warm()
        small = db.execute("SELECT a FROM u WHERE a = 1")
        trace_small = build_trace(db.profile, small.stats)
        large = db.execute("SELECT a FROM u WHERE a > 1")
        trace_large = build_trace(db.profile, large.stats)
        # Temp volume is proportional to rows flowing through the
        # executor (scan + downstream operators).
        assert trace_small.total_disk_bytes == pytest.approx(
            db.profile.temp_write_bytes_per_row
            * small.stats.total_rows_in
        )
        assert trace_large.total_disk_bytes > trace_small.total_disk_bytes
