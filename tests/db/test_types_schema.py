"""Column types, dictionary encoding, schemas, tables."""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eager_gather
from repro.db.errors import CatalogError, TypeMismatchError
from repro.db.exec.operators import _batch_bytes
from repro.db.expr import Batch
from repro.db.schema import ColumnDef, Table, TableSchema
from repro.db.types import (
    Column,
    DataType,
    date_to_days,
    days_to_date,
    literal_to_comparable,
)


class TestDates:
    def test_epoch(self):
        assert date_to_days("1970-01-01") == 0

    def test_round_trip(self):
        for iso in ("1992-01-01", "1998-08-02", "2026-06-13"):
            days = date_to_days(iso)
            assert days_to_date(days).isoformat() == iso

    def test_date_object(self):
        assert date_to_days(datetime.date(1970, 1, 2)) == 1


class TestColumn:
    def test_int_column(self):
        col = Column.from_values(DataType.INT64, [3, 1, 2])
        assert col.raw().dtype == np.int64
        assert list(col.values()) == [3, 1, 2]

    def test_string_dictionary_encoding(self):
        col = Column.from_values(DataType.STRING, ["a", "b", "a", "c", "b"])
        assert col.dictionary == ["a", "b", "c"]
        assert list(col.raw()) == [0, 1, 0, 2, 1]
        assert list(col.values()) == ["a", "b", "a", "c", "b"]

    def test_code_for(self):
        col = Column.from_values(DataType.STRING, ["x", "y"])
        assert col.code_for("y") == 1
        assert col.code_for("missing") == -1

    def test_code_for_rejects_non_string(self):
        col = Column.from_values(DataType.INT64, [1])
        with pytest.raises(TypeMismatchError):
            col.code_for("x")

    def test_date_column_accepts_iso_strings(self):
        col = Column.from_values(DataType.DATE, ["1994-01-01", "1994-01-02"])
        assert col.raw()[1] - col.raw()[0] == 1
        assert col.values()[0] == datetime.date(1994, 1, 1)

    def test_take_preserves_dictionary(self):
        col = Column.from_values(DataType.STRING, ["a", "b", "c"])
        taken = col.take(np.array([2, 0]))
        assert list(taken.values()) == ["c", "a"]
        assert taken.dictionary is col.dictionary

    def test_string_requires_dictionary(self):
        with pytest.raises(TypeMismatchError):
            Column(DataType.STRING, np.array([0]))
        with pytest.raises(TypeMismatchError):
            Column(DataType.INT64, np.array([0]), dictionary=["x"])

    def test_literal_to_comparable(self):
        scol = Column.from_values(DataType.STRING, ["a"])
        assert literal_to_comparable(scol, "a") == 0
        dcol = Column.from_values(DataType.DATE, ["1970-01-02"])
        assert literal_to_comparable(dcol, "1970-01-03") == 2
        icol = Column.from_values(DataType.INT64, [1])
        with pytest.raises(TypeMismatchError):
            literal_to_comparable(icol, "not a number")


def _gathered(batch: Batch) -> dict[str, bool]:
    return {k: col._data is not None for k, col in batch.columns.items()}


_DTYPES = (DataType.INT64, DataType.FLOAT64, DataType.DATE, DataType.STRING)


@st.composite
def _source(draw, tag: int) -> Batch:
    """One source table's batch: 1-3 columns of 0-12 rows."""
    n = draw(st.integers(0, 12))
    columns = {}
    for j, dtype in enumerate(draw(st.lists(
            st.sampled_from(_DTYPES), min_size=1, max_size=3))):
        if dtype is DataType.STRING:
            words = st.sampled_from(["AFRICA", "ASIA", "EUROPE", "x"])
            values = draw(st.lists(words, min_size=n, max_size=n))
        elif dtype is DataType.FLOAT64:
            values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n,
                                   max_size=n))
        else:
            values = draw(st.lists(st.integers(0, 20_000), min_size=n,
                                   max_size=n))
        columns[f"s{tag}.c{j}"] = Column.from_values(dtype, values)
    return Batch(columns, n)


def _positions(draw, n: int, size: int | None = None) -> np.ndarray:
    """Drawn row positions into ``n`` rows, repeats and order free."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if size is None:
        size = draw(st.integers(0, 15))
    return np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=size,
                      max_size=size)), dtype=np.int64,
    )


@st.composite
def _chain(draw):
    """Sources plus a script of operations over their merged batch.

    Each op is ``(kind, argument)``: ``join`` merges the next source in
    through a drawn pair of equal-length index arrays (a join's
    output), the others act on the whole batch.
    """
    sources = [draw(_source(tag)) for tag in range(draw(st.integers(1, 3)))]
    ops = []
    n = sources[0].n_rows
    pending = sources[1:]
    for _ in range(draw(st.integers(1, 6))):
        kinds = ["take", "head", "filter"] + (["join"] if pending else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "join":
            other = pending.pop(0)
            size = draw(st.integers(0, 15))
            if n == 0 or other.n_rows == 0:
                size = 0
            left = _positions(draw, n, size)
            right = _positions(draw, other.n_rows, size)
            ops.append((kind, (other, left, right)))
            n = size
        elif kind == "take":
            rows = _positions(draw, n)
            ops.append((kind, rows))
            n = len(rows)
        elif kind == "head":
            limit = draw(st.integers(-2, n + 2))
            ops.append((kind, limit))
            n = max(0, min(limit, n))
        else:
            mask = np.asarray(draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool)
            ops.append((kind, mask))
            n = int(mask.sum())
    return sources[0], ops


def _run(batch: Batch, ops) -> tuple[Batch, str]:
    for kind, arg in ops:
        if kind == "join":
            other, left, right = arg
            batch = batch.take(left).merged_with(other.take(right))
        elif kind == "take":
            batch = batch.take(arg)
        elif kind == "head":
            batch = batch.head(arg)
        else:
            batch = batch.take(np.flatnonzero(arg))
    return batch, kind


class TestLateMaterialization:
    """``take`` composes row indices and gathers on first read; every
    value it finally yields is the eager per-column copy's."""

    @given(chain=_chain())
    @settings(max_examples=300, derandomize=True, database=None)
    def test_lazy_chain_is_the_eager_copy(self, chain):
        first, ops = chain
        with pytest.MonkeyPatch.context() as mp:
            eager_gather.patched(mp)
            eager, _ = _run(first, ops)
        lazy, last = _run(first, ops)
        assert lazy.n_rows == eager.n_rows
        assert list(lazy.columns) == list(eager.columns)
        for key, col in lazy.columns.items():
            assert len(col) == len(eager.columns[key]) == lazy.n_rows
        _batch_bytes(lazy)
        # Nothing has read the chain's output yet (``len`` and the byte
        # estimate do not): a take leaves every column pending, a LIMIT
        # leaves every column owning its rows.
        before = _gathered(lazy)
        assert set(before.values()) <= {last == "head"}
        # Reading one column gathers it and no column sharing its index.
        read = next(iter(lazy.columns))
        lazy.columns[read].raw()
        assert _gathered(lazy) == {**before, read: True}
        for key, col in lazy.columns.items():
            want = eager.columns[key]
            assert col.data.dtype == want.data.dtype
            assert np.array_equal(col.data, want.data)
            assert col.dictionary is want.dictionary
            assert len(col) == len(want)

    def test_take_shares_one_index_per_source(self):
        left = Batch({
            "a.x": Column.from_values(DataType.INT64, [1, 2, 3]),
            "a.y": Column.from_values(DataType.STRING, ["p", "q", "r"]),
        }, 3).take(np.array([2, 0]))
        right = Batch({
            "b.z": Column.from_values(DataType.FLOAT64, [0.5, 1.5]),
            "b.w": Column.from_values(DataType.DATE, [7, 8]),
        }, 2)
        joined = left.take(np.array([0, 1, 1])).merged_with(
            right.take(np.array([1, 1, 0])))
        out = joined.take(np.array([2, 0]))  # a post-join filter
        x, y, z, w = (col._rows for col in out.columns.values())
        assert x is y and z is w and x is not z  # one index per source
        assert list(out.columns["a.y"].values()) == ["p", "r"]
        assert list(out.columns["b.z"].values()) == [0.5, 1.5]

    def test_head_of_a_lazy_column_gathers_only_kept_rows(self):
        base = np.arange(100, dtype=np.int64)
        col = Column(DataType.INT64, base).take(np.arange(99, -1, -1))
        head = col.head(3)
        assert col._data is None  # the source stays pending
        assert list(head.data) == [99, 98, 97]
        assert not np.shares_memory(head.data, base)
        assert not np.shares_memory(
            Column(DataType.INT64, base).head(3).data, base
        )


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [
                ColumnDef("a", DataType.INT64),
                ColumnDef("a", DataType.INT64),
            ])

    def test_invalid_column_name(self):
        with pytest.raises(CatalogError):
            ColumnDef("not a name", DataType.INT64)

    def test_column_lookup(self):
        schema = TableSchema("t", [ColumnDef("a", DataType.INT64)])
        assert schema.column("a").dtype is DataType.INT64
        assert schema.has_column("a")
        assert not schema.has_column("b")
        with pytest.raises(CatalogError):
            schema.column("b")

    def test_row_width(self):
        schema = TableSchema("t", [
            ColumnDef("a", DataType.INT64),
            ColumnDef("b", DataType.STRING),
            ColumnDef("c", DataType.DATE),
        ])
        assert schema.row_width_bytes == 8 + 16 + 4 + 8


class TestTable:
    def _schema(self):
        return TableSchema("t", [
            ColumnDef("k", DataType.INT64),
            ColumnDef("s", DataType.STRING),
        ])

    def test_from_arrays(self):
        table = Table.from_arrays(
            self._schema(), {"k": [1, 2], "s": ["x", "y"]}
        )
        assert table.row_count == 2
        assert table.row(1) == (2, "y")

    def test_missing_column_rejected(self):
        with pytest.raises(CatalogError):
            Table.from_arrays(self._schema(), {"k": [1, 2]})

    def test_ragged_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table.from_arrays(
                self._schema(), {"k": [1, 2], "s": ["x"]}
            )

    def test_dtype_mismatch_rejected(self):
        schema = self._schema()
        cols = {
            "k": Column.from_values(DataType.FLOAT64, [1.0]),
            "s": Column.from_values(DataType.STRING, ["x"]),
        }
        with pytest.raises(TypeMismatchError):
            Table(schema, cols)

    def test_select_rows_mask_and_indices(self):
        table = Table.from_arrays(
            self._schema(), {"k": [1, 2, 3], "s": ["a", "b", "c"]}
        )
        by_mask = table.select_rows(np.array([True, False, True]))
        assert [r[0] for r in map(table.row, range(3))] == [1, 2, 3]
        assert by_mask.row_count == 2
        by_idx = table.select_rows(np.array([2]))
        assert by_idx.row(0) == (3, "c")

    def test_size_bytes(self):
        table = Table.from_arrays(
            self._schema(), {"k": [1, 2], "s": ["a", "b"]}
        )
        assert table.size_bytes == 2 * table.schema.row_width_bytes
