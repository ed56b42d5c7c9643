"""The array-at-a-time QED hash split against its per-row oracle.

``reference_split.py`` holds the loop the splitter used to be; on drawn
batches the array split must hand every query the same rows in the same
*order*, count the same ``unmatched_rows`` and charge the same
``split_cost_rows``.  Where every literal is one the database could
evaluate, the general ``_split_by_predicates`` path must agree too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_split import split_by_hash_reference, split_cost_reference
from repro.core.qed.aggregator import MergedQuery
from repro.core.qed.splitter import (
    _split_by_predicates,
    split_cost_rows,
    split_result,
)
from repro.db.results import QueryResult
from repro.db.sql import ast
from repro.db.types import Column, DataType

DETERMINISTIC = dict(derandomize=True, database=None, deadline=None)

#: stored values and literals overlap but neither covers the other, so
#: draws hold rows no query asked for and queries no row answers
STORED = {
    DataType.INT64: st.integers(-3, 6),
    DataType.FLOAT64: st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 3.0,
                                       float("nan")]),
    DataType.STRING: st.sampled_from(["a", "b", "c", "dd", ""]),
    DataType.DATE: st.integers(9000, 9006),
}
ASKED = {
    DataType.INT64: st.integers(-5, 8) | st.sampled_from(
        [2.0, 4.0, 2.5, True, 2 ** 70, float("nan")]),
    DataType.FLOAT64: st.sampled_from(
        [-1.5, 0.0, 0.5, 2.0, 2, 3, 7.25, 2 ** 53 + 1, float("inf")]),
    DataType.STRING: st.sampled_from(["a", "b", "dd", "", "zz", "A"]),
    DataType.DATE: st.integers(8998, 9008) | st.just(9003.0),
}
#: literals whose type the column cannot hold: the hash route matches
#: nothing, the database would refuse the predicate
FOREIGN = {
    DataType.INT64: st.sampled_from(["2", "a"]),
    DataType.FLOAT64: st.sampled_from(["0.5", "a"]),
    DataType.STRING: st.sampled_from([1, 0.5]),
    DataType.DATE: st.sampled_from(["1994-08-25", "a"]),
}


def _batch(dtype: DataType, stored: list, literals: list
           ) -> tuple[MergedQuery, QueryResult]:
    """A merged equality batch on column ``k`` and a result for it;
    ``row`` numbers the merged rows so order is observable."""
    result = QueryResult(
        names=["k", "row"],
        columns=[
            Column.from_values(dtype, stored),
            Column(DataType.INT64, np.arange(len(stored), dtype=np.int64)),
        ],
    )
    predicates = tuple(
        ast.Comparison("=", ast.ColumnRef("k"), ast.Literal(value))
        for value in literals
    )
    select = ast.Select(
        items=(ast.SelectItem(ast.ColumnRef("k")),
               ast.SelectItem(ast.ColumnRef("row"))),
        tables=(ast.TableRef("t"),),
        where=ast.or_all(list(dict.fromkeys(predicates))),
    )
    return MergedQuery(select, predicates, "k", tuple(literals)), result


def _assert_same_split(got, want) -> None:
    assert got.unmatched_rows == want.unmatched_rows
    assert got.rows_routed == want.rows_routed
    assert len(got.results) == len(want.results)
    # elementwise, so a query's rows must also come in the same order
    for a, b in zip(got.results, want.results):
        assert a.names == b.names
        for x, y in zip(a.columns, b.columns):
            assert x.dtype is y.dtype and x.dictionary is y.dictionary
            assert x.raw().dtype == y.raw().dtype
            assert np.array_equal(x.raw(), y.raw(), equal_nan=True)


@st.composite
def batches(draw, foreign: bool):
    dtype = draw(st.sampled_from(list(STORED)))
    stored = draw(st.lists(STORED[dtype], max_size=40))
    asked = ASKED[dtype] | FOREIGN[dtype] if foreign else ASKED[dtype]
    # duplicate queries are the norm in a QED batch: draw with repeats
    literals = draw(st.lists(asked, min_size=1, max_size=12))
    return dtype, stored, literals


class TestArraySplitMatchesReference:
    @given(batch=batches(foreign=True))
    @settings(max_examples=200, **DETERMINISTIC)
    def test_rows_order_unmatched_and_cost(self, batch):
        merged, result = _batch(*batch)
        got = split_result(merged, result)
        _assert_same_split(got, split_by_hash_reference(merged, result))
        cost = split_cost_rows(merged, result)
        assert cost == split_cost_reference(merged, result)
        # one lookup per merged row plus one extra delivery per
        # additional query a row lands in
        matched = result.row_count - got.unmatched_rows
        assert cost == result.row_count + (
            sum(got.per_query_rows) - matched
        )

    @given(batch=batches(foreign=False))
    @settings(max_examples=120, **DETERMINISTIC)
    def test_agrees_with_predicate_split(self, batch):
        dtype, stored, literals = batch
        # numpy compares a float column to an int literal in floating
        # point; the hash route compares exactly.  Keep to literals
        # where the two coincide.
        literals = [v for v in literals
                    if not isinstance(v, int) or abs(v) < 2 ** 53]
        if not literals:
            return
        merged, result = _batch(dtype, stored, literals)
        _assert_same_split(split_result(merged, result),
                           _split_by_predicates(merged, result))

    def test_duplicate_queries_each_get_every_row_in_result_order(self):
        merged, result = _batch(DataType.INT64, [1, 2, 1, 3], [1, 2, 1])
        rows = [r.column("row").raw().tolist()
                for r in split_result(merged, result).results]
        assert rows == [[0, 2], [1], [0, 2]]

    @pytest.mark.parametrize("dtype,stored,literal", [
        (DataType.DATE, [8994, 8995], "1994-08-17"),  # day 8994
        (DataType.INT64, [2, 3], "2"),
        (DataType.STRING, ["1", "2"], 1),
    ])
    def test_a_literal_of_another_type_matches_nothing(self, dtype, stored,
                                                       literal):
        """As the per-row loop always had it; the database refuses each
        of these predicates (``test_date_column_refuses_a_bare_string``
        pins the DATE row)."""
        merged, result = _batch(dtype, stored, [literal])
        outcome = split_result(merged, result)
        assert outcome.per_query_rows == [0]
        assert outcome.unmatched_rows == 2
        assert split_cost_rows(merged, result) == 2

    @pytest.mark.parametrize("batch_size", [127, 128, 300])
    def test_batches_wider_than_the_narrowest_sort_key(self, batch_size):
        literals = list(range(batch_size)) + [batch_size - 1]
        stored = [batch_size - 1, 5, batch_size - 1, 70_000, 0]
        merged, result = _batch(DataType.INT64, stored, literals)
        got = split_result(merged, result)
        _assert_same_split(got, split_by_hash_reference(merged, result))
        assert got.per_query_rows[-2:] == [2, 2]
        assert split_cost_rows(merged, result) == split_cost_reference(
            merged, result
        )


class TestDuplicateHeavyCost:
    """The simulated client cost on batches where most queries repeat."""

    @pytest.mark.parametrize("literals,stored,expected", [
        # 6 rows looked up; value 1 (3 rows) goes to 3 queries: +6
        ([1, 1, 1, 2], [1, 1, 1, 2, 2, 9], 6 + 6),
        # every query the same: each of 4 matched rows copied 4 times
        ([5, 5, 5, 5], [5, 5, 5, 5, 7], 5 + 12),
        # duplicates of a value no row carries cost nothing extra
        ([8, 8, 8, 1], [1, 2, 3], 3),
        # 5 and 5.0 are one routing value shared by two queries
        ([5, 5.0], [5, 5, 6], 3 + 2),
    ])
    def test_cost_rows(self, literals, stored, expected):
        merged, result = _batch(DataType.INT64, stored, literals)
        assert split_cost_rows(merged, result) == expected
        assert split_cost_reference(merged, result) == expected

    def test_real_duplicate_batch(self, mysql_db):
        from repro.core.qed.aggregator import merge_queries
        from repro.workloads.selection import selection_query

        queries = [selection_query(q) for q in (3, 7, 3, 3, 9, 7, 11, 3)]
        merged = merge_queries(queries)
        result = mysql_db.execute(merged.sql)
        outcome = split_result(merged, result)
        _assert_same_split(outcome, split_by_hash_reference(merged, result))
        assert outcome.unmatched_rows == 0
        assert split_cost_rows(merged, result) == result.row_count + (
            sum(outcome.per_query_rows) - result.row_count
        )
        assert split_cost_rows(merged, result) == split_cost_reference(
            merged, result
        )
