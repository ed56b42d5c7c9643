"""Operator correctness against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.engine import Database
from repro.db.exec.operators import join_indices
from repro.db.profiles import mysql_profile
from repro.db.schema import ColumnDef, TableSchema
from repro.db.types import DataType


class TestJoinIndices:
    def test_simple(self):
        build = np.array([1, 2, 3])
        probe = np.array([2, 3, 4])
        b, p = join_indices(build, probe)
        pairs = sorted(zip(build[b], probe[p]))
        assert pairs == [(2, 2), (3, 3)]

    def test_duplicates_on_build_side(self):
        build = np.array([5, 5, 7])
        probe = np.array([5, 7, 7])
        b, p = join_indices(build, probe)
        pairs = sorted(zip(build[b], probe[p]))
        assert pairs == [(5, 5), (5, 5), (7, 7), (7, 7)]

    def test_empty_result(self):
        b, p = join_indices(np.array([1]), np.array([2]))
        assert len(b) == 0 and len(p) == 0

    @given(
        build=st.lists(st.integers(0, 8), max_size=30),
        probe=st.lists(st.integers(0, 8), max_size=30),
    )
    @settings(max_examples=60)
    def test_matches_nested_loop(self, build, probe):
        """join_indices produces exactly the nested-loop pair multiset."""
        build_arr = np.asarray(build, dtype=np.int64)
        probe_arr = np.asarray(probe, dtype=np.int64)
        b, p = join_indices(build_arr, probe_arr)
        got = sorted(zip(b.tolist(), p.tolist()))
        expected = sorted(
            (i, j)
            for i, bv in enumerate(build)
            for j, pv in enumerate(probe)
            if bv == pv
        )
        assert got == expected


def join_indices_reference(build_keys, probe_keys):
    """The probe ``join_indices`` used to run: two binary searches per
    probe key.  The array pair -- values, order and dtype -- is the
    contract: downstream float sums read rows in this order."""
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    left = np.searchsorted(sorted_keys, probe_keys, side="left")
    right = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = right - left
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
    if total == 0:
        return np.empty(0, dtype=np.int64), probe_idx
    starts = np.repeat(left, counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(offsets, counts)
    return order[starts + within], probe_idx


def assert_same_join(build, probe):
    got = join_indices(build, probe)
    want = join_indices_reference(build, probe)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


#: dense keys (direct-address table), with negatives and probes that
#: fall outside the build range
DENSE = st.integers(-6, 9)
#: a handful of values spread over the whole int64 range: no table can
#: span them, so they are binary-searched like floats and objects
SPARSE = st.sampled_from([
    -2 ** 63, -2 ** 40, -7, 0, 1, 3, 10 ** 6, 2 ** 40, 2 ** 63 - 1,
])


class TestJoinIndicesMatchReference:
    @given(build=st.lists(DENSE, max_size=40),
           probe=st.lists(st.integers(-12, 15), max_size=40),
           build_dtype=st.sampled_from([np.int64, np.int32]),
           probe_dtype=st.sampled_from([np.int64, np.int32]))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_dense_integer_keys(self, build, probe, build_dtype,
                                probe_dtype):
        assert_same_join(np.asarray(build, dtype=build_dtype),
                         np.asarray(probe, dtype=probe_dtype))

    @given(build=st.lists(SPARSE, max_size=30),
           probe=st.lists(SPARSE | st.integers(-9, 9), max_size=30))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_sparse_integer_keys(self, build, probe):
        assert_same_join(np.asarray(build, dtype=np.int64),
                         np.asarray(probe, dtype=np.int64))

    @given(build=st.lists(st.sampled_from(
               [-1.5, -0.0, 0.0, 2.0, 2.5, float("inf"), float("nan")]
           ), max_size=30),
           probe=st.lists(st.sampled_from(
               [-1.5, 0.0, 2.0, 3.0, float("-inf"), float("nan")]
           ), max_size=30))
    @settings(max_examples=100, derandomize=True, database=None)
    def test_float_keys(self, build, probe):
        assert_same_join(np.asarray(build, dtype=np.float64),
                         np.asarray(probe, dtype=np.float64))

    @given(build=st.lists(st.sampled_from(["a", "b", "bb", ""]),
                          max_size=30),
           probe=st.lists(st.sampled_from(["a", "bb", "c", ""]),
                          max_size=30))
    @settings(max_examples=100, derandomize=True, database=None)
    def test_object_keys(self, build, probe):
        assert_same_join(np.asarray(build, dtype=object),
                         np.asarray(probe, dtype=object))

    def test_integer_keys_against_float_keys(self):
        assert_same_join(np.array([1, 2, 2, 5]),
                         np.array([2.0, 2.5, 5.0, 1.0]))

    def test_tpch_shaped_keys(self):
        rng = np.random.default_rng(3)
        build = rng.permutation(np.arange(1, 2001))[:700]  # filtered PK
        probe = rng.integers(1, 2001, 5000)                # FK
        assert_same_join(build, probe)
        assert_same_join(probe, build)                     # duplicate build


@pytest.fixture()
def db() -> Database:
    rng = np.random.default_rng(7)
    db = Database(mysql_profile())
    n = 500
    db.create_table(
        TableSchema("facts", [
            ColumnDef("id", DataType.INT64),
            ColumnDef("grp", DataType.STRING),
            ColumnDef("val", DataType.FLOAT64),
            ColumnDef("qty", DataType.INT64),
        ]),
        {
            "id": list(range(n)),
            "grp": [f"g{i % 7}" for i in range(n)],
            "val": rng.uniform(0, 100, n).round(3).tolist(),
            "qty": rng.integers(1, 50, n).tolist(),
        },
    )
    db.create_table(
        TableSchema("dims", [
            ColumnDef("grp", DataType.STRING),
            ColumnDef("weight", DataType.FLOAT64),
        ]),
        {
            "grp": [f"g{i}" for i in range(7)],
            "weight": [float(i + 1) for i in range(7)],
        },
    )
    return db


def rows_of(db: Database, table: str) -> list[tuple]:
    t = db.catalog.table(table)
    return [t.row(i) for i in range(t.row_count)]


class TestAggregates:
    def test_sum_count_avg_min_max_vs_python(self, db):
        result = db.execute(
            "SELECT grp, SUM(val) AS s, COUNT(*) AS n, AVG(val) AS a, "
            "MIN(val) AS mn, MAX(val) AS mx FROM facts GROUP BY grp "
            "ORDER BY grp"
        )
        facts = rows_of(db, "facts")
        by_group: dict[str, list[float]] = {}
        for _, grp, val, _ in facts:
            by_group.setdefault(grp, []).append(val)
        expected = []
        for grp in sorted(by_group):
            vals = by_group[grp]
            expected.append((
                grp, sum(vals), len(vals), sum(vals) / len(vals),
                min(vals), max(vals),
            ))
        for got, want in zip(result.rows(), expected):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])
            assert got[2] == want[2]
            assert got[3] == pytest.approx(want[3])
            assert got[4] == pytest.approx(want[4])
            assert got[5] == pytest.approx(want[5])

    def test_global_aggregate(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM facts")
        assert result.scalar() == 500

    def test_global_aggregate_on_empty_selection(self, db):
        result = db.execute(
            "SELECT COUNT(*) AS n, SUM(val) AS s FROM facts "
            "WHERE val < -1"
        )
        rows = result.rows()
        assert rows[0][0] == 0
        assert rows[0][1] == 0.0

    def test_aggregate_of_expression(self, db):
        result = db.execute(
            "SELECT SUM(val * 2) AS s FROM facts"
        )
        facts = rows_of(db, "facts")
        assert result.scalar() == pytest.approx(
            sum(2 * r[2] for r in facts)
        )

    def test_having(self, db):
        result = db.execute(
            "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp "
            "HAVING COUNT(*) > 70 ORDER BY grp"
        )
        for _, n in result.rows():
            assert n > 70


class TestJoins:
    def test_join_vs_python(self, db):
        result = db.execute(
            "SELECT f.id, d.weight FROM facts f, dims d "
            "WHERE f.grp = d.grp AND f.val > 90 ORDER BY f.id"
        )
        facts = rows_of(db, "facts")
        dims = {g: w for g, w in rows_of(db, "dims")}
        expected = sorted(
            (fid, dims[grp])
            for fid, grp, val, _ in facts if val > 90
        )
        got = [(r[0], r[1]) for r in result.rows()]
        assert got == expected

    def test_join_then_aggregate(self, db):
        result = db.execute(
            "SELECT d.weight, SUM(f.val) AS s FROM facts f, dims d "
            "WHERE f.grp = d.grp GROUP BY d.weight ORDER BY d.weight"
        )
        facts = rows_of(db, "facts")
        dims = {g: w for g, w in rows_of(db, "dims")}
        expected: dict[float, float] = {}
        for _, grp, val, _ in facts:
            expected[dims[grp]] = expected.get(dims[grp], 0.0) + val
        for weight, total in result.rows():
            assert total == pytest.approx(expected[weight])


class TestSortDistinctLimit:
    def test_multi_key_sort(self, db):
        result = db.execute(
            "SELECT grp, qty, id FROM facts ORDER BY grp, qty DESC, id"
        )
        rows = result.rows()
        keys = [(g, -q, i) for g, q, i in rows]
        assert keys == sorted(keys)

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT grp FROM facts")
        values = sorted(r[0] for r in result.rows())
        assert values == [f"g{i}" for i in range(7)]

    def test_limit(self, db):
        result = db.execute(
            "SELECT id FROM facts ORDER BY id LIMIT 3"
        )
        assert [r[0] for r in result.rows()] == [0, 1, 2]

    def test_limit_larger_than_result(self, db):
        result = db.execute(
            "SELECT id FROM facts WHERE id < 2 LIMIT 100"
        )
        assert result.row_count == 2

    def test_order_by_expression_in_select(self, db):
        result = db.execute(
            "SELECT id, val * qty AS score FROM facts "
            "ORDER BY score DESC LIMIT 5"
        )
        scores = [r[1] for r in result.rows()]
        assert scores == sorted(scores, reverse=True)

    def test_limit_slices_batch(self, db):
        from repro.db.expr import Batch
        from repro.db.types import Column

        data = np.arange(10, dtype=np.int64)
        batch = Batch({"t.x": Column(DataType.INT64, data)}, 10)
        head = batch.head(3)
        assert head.n_rows == 3
        assert head.columns["t.x"].raw().tolist() == [0, 1, 2]
        # The slice owns its memory: a cached LIMIT result must not
        # pin the full pre-limit arrays alive.
        assert not np.shares_memory(head.columns["t.x"].raw(), data)
        assert batch.head(100).n_rows == 10
        # A programmatically built plan can carry a negative limit; it
        # degrades to an empty batch, never an inconsistent one.
        empty = batch.head(-2)
        assert empty.n_rows == 0
        assert len(empty.columns["t.x"]) == 0


class TestDescendingKey:
    def _dk(self):
        from repro.db.exec.operators import _descending_key
        return _descending_key

    def _assert_orders_descending(self, values):
        key = self._dk()(values)
        order = np.argsort(key, kind="stable")
        ranked = values[order]
        # Equivalent to the dense-rank reference implementation.
        _, ranks = np.unique(values, return_inverse=True)
        ref = np.argsort(-ranks, kind="stable")
        assert np.array_equal(order, ref), (ranked, values[ref])

    def test_float_keys_negate_directly(self):
        values = np.array([3.5, -1.0, 2.0, 3.5, 0.0])
        assert np.array_equal(self._dk()(values), -values)
        self._assert_orders_descending(values)

    def test_int_keys_negate_directly(self):
        values = np.array([5, -2, 9, 5], dtype=np.int64)
        assert np.array_equal(self._dk()(values), -values)
        self._assert_orders_descending(values)

    def test_nan_falls_back_to_ranks(self):
        values = np.array([1.0, np.nan, 2.0])
        key = self._dk()(values)
        # The rank detour treats NaN as the largest value, so DESC puts
        # it first; plain negation would flip it to last.  The fallback
        # preserves the established semantics.
        order = np.argsort(key, kind="stable")
        assert order[0] == 1
        self._assert_orders_descending(values)

    def test_int64_min_falls_back_to_ranks(self):
        lowest = np.iinfo(np.int64).min
        values = np.array([lowest, 0, 5], dtype=np.int64)
        key = self._dk()(values)
        order = np.argsort(key, kind="stable")
        assert values[order].tolist() == [5, 0, lowest]

    def test_string_keys_fall_back_to_ranks(self):
        values = np.array(["b", "a", "c", "a"], dtype=object)
        key = self._dk()(values)
        order = np.argsort(key, kind="stable")
        assert values[order].tolist() == ["c", "b", "a", "a"]

    def test_ties_remain_ties_for_minor_keys(self, db):
        result = db.execute(
            "SELECT qty, id FROM facts ORDER BY qty DESC, id"
        )
        rows = result.rows()
        keys = [(-q, i) for q, i in rows]
        assert keys == sorted(keys)
