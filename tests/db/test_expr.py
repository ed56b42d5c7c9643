"""Expression evaluation: values and short-circuit work accounting."""

import numpy as np
import pytest

from repro.db.exec.stats import ExprCounters
from repro.db.expr import Batch, evaluate_predicate, evaluate_scalar
from repro.db.errors import ExecutionError, TypeMismatchError
from repro.db.sql.parser import parse_expression
from repro.db.types import Column, DataType


def make_batch() -> Batch:
    cols = {
        "t.x": Column.from_values(DataType.INT64, [1, 2, 3, 4, 5]),
        "t.y": Column.from_values(DataType.FLOAT64,
                                  [1.0, 4.0, 9.0, 16.0, 25.0]),
        "t.s": Column.from_values(DataType.STRING,
                                  ["a", "b", "a", "c", "a"]),
        "t.d": Column.from_values(
            DataType.DATE,
            ["1994-01-01", "1994-06-01", "1995-01-01", "1995-06-01",
             "1996-01-01"],
        ),
    }
    return Batch(cols, 5)


def eval_pred(sql: str, batch: Batch) -> tuple[list[bool], ExprCounters]:
    counters = ExprCounters()
    mask = evaluate_predicate(parse_expression(sql), batch, counters)
    return list(mask), counters


class TestValues:
    def test_comparisons(self):
        batch = make_batch()
        mask, _ = eval_pred("t.x > 3", batch)
        assert mask == [False, False, False, True, True]

    def test_string_equality_via_codes(self):
        batch = make_batch()
        mask, _ = eval_pred("t.s = 'a'", batch)
        assert mask == [True, False, True, False, True]

    def test_missing_string_literal_matches_nothing(self):
        batch = make_batch()
        mask, _ = eval_pred("t.s = 'zebra'", batch)
        assert mask == [False] * 5

    def test_date_comparison(self):
        batch = make_batch()
        mask, _ = eval_pred("t.d >= DATE '1995-01-01'", batch)
        assert mask == [False, False, True, True, True]

    def test_date_column_refuses_a_bare_string(self):
        """Only a DATE literal compares with a DATE column; QED's hash
        split gives such a string no rows, so the two never disagree."""
        batch = make_batch()
        for sql in ("t.d = '1995-01-01'", "t.d IN ('1995-01-01')",
                    "t.d BETWEEN '1994-06-01' AND DATE '1995-06-01'"):
            with pytest.raises(TypeMismatchError,
                               match="string literal in numeric context"):
                eval_pred(sql, batch)

    def test_between(self):
        batch = make_batch()
        mask, _ = eval_pred("t.x BETWEEN 2 AND 4", batch)
        assert mask == [False, True, True, True, False]

    def test_in_list(self):
        batch = make_batch()
        mask, _ = eval_pred("t.x IN (1, 5, 9)", batch)
        assert mask == [True, False, False, False, True]

    def test_not(self):
        batch = make_batch()
        mask, _ = eval_pred("NOT t.x = 3", batch)
        assert mask == [True, True, False, True, True]

    def test_arithmetic_scalar(self):
        batch = make_batch()
        counters = ExprCounters()
        values = evaluate_scalar(
            parse_expression("t.x * 2 + 1"), batch, counters
        )
        assert list(values) == [3, 5, 7, 9, 11]
        assert counters.arithmetic_ops == 10  # two ops x five rows

    def test_division(self):
        batch = make_batch()
        counters = ExprCounters()
        values = evaluate_scalar(
            parse_expression("t.y / t.x"), batch, counters
        )
        assert list(values) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_string_in_numeric_context_rejected(self):
        batch = make_batch()
        with pytest.raises(TypeMismatchError):
            evaluate_scalar(
                parse_expression("t.s + 1"), batch, ExprCounters()
            )

    def test_aggregate_outside_aggregation_rejected(self):
        batch = make_batch()
        with pytest.raises(ExecutionError):
            evaluate_scalar(
                parse_expression("SUM(t.x)"), batch, ExprCounters()
            )

    def test_unknown_column(self):
        batch = make_batch()
        with pytest.raises(ExecutionError):
            eval_pred("t.nope = 1", batch)


class TestShortCircuitAccounting:
    def test_single_comparison_counts_all_rows(self):
        batch = make_batch()
        _, counters = eval_pred("t.x = 3", batch)
        assert counters.comparisons == 5

    def test_or_charges_right_side_only_for_left_misses(self):
        batch = make_batch()
        # left matches rows 1,3,5 (s='a'); right evaluated on 2 rows.
        _, counters = eval_pred("t.s = 'a' OR t.x = 2", batch)
        assert counters.comparisons == 5 + 2

    def test_and_charges_right_side_only_for_left_hits(self):
        batch = make_batch()
        # left true on rows 4,5; right evaluated on those 2 only.
        _, counters = eval_pred("t.x > 3 AND t.y > 20", batch)
        assert counters.comparisons == 5 + 2

    def test_or_chain_first_match_position(self):
        """A row stops at its first matching disjunct."""
        batch = make_batch()
        # x=1 matches first (1 cmp); x=2 matches second (2 cmps);
        # x=3 matches third (3); x=4,5 match nothing (3 each).
        _, counters = eval_pred(
            "t.x = 1 OR t.x = 2 OR t.x = 3", batch
        )
        assert counters.comparisons == 1 + 2 + 3 + 3 + 3

    def test_in_list_short_circuits(self):
        batch = make_batch()
        _, counters = eval_pred("t.x IN (1, 2, 3)", batch)
        assert counters.comparisons == 1 + 2 + 3 + 3 + 3

    def test_between_counts_upper_bound_conditionally(self):
        batch = make_batch()
        # lower bound: 5 cmps; >=2 passes on 4 rows -> 4 upper cmps.
        _, counters = eval_pred("t.x BETWEEN 2 AND 4", batch)
        assert counters.comparisons == 5 + 4

    def test_not_does_not_add_comparisons(self):
        batch = make_batch()
        _, plain = eval_pred("t.x = 3", batch)
        _, negated = eval_pred("NOT t.x = 3", batch)
        assert plain.comparisons == negated.comparisons

    def test_nested_or_of_ands(self):
        batch = make_batch()
        # (x>3 AND y>20) OR s='a'
        # left-and: 5 + 2 = 7 cmps, true on row 5 only...
        # x>3: rows 4,5; y>20 on those: row5 -> left true rows {5}
        # right evaluated on remaining 4 rows.
        _, counters = eval_pred(
            "(t.x > 3 AND t.y > 20) OR t.s = 'a'", batch
        )
        assert counters.comparisons == 7 + 4


class TestBatch:
    def test_unqualified_unique_suffix_resolves(self):
        batch = make_batch()
        mask, _ = eval_pred("x = 2", batch)
        assert mask == [False, True, False, False, False]

    def test_ambiguous_unqualified_rejected(self):
        cols = {
            "a.k": Column.from_values(DataType.INT64, [1]),
            "b.k": Column.from_values(DataType.INT64, [1]),
        }
        batch = Batch(cols, 1)
        with pytest.raises(ExecutionError):
            eval_pred("k = 1", batch)

    def test_merge_rejects_duplicates_and_length_mismatch(self):
        a = Batch({"t.x": Column.from_values(DataType.INT64, [1])}, 1)
        b = Batch({"t.x": Column.from_values(DataType.INT64, [2])}, 1)
        with pytest.raises(ExecutionError):
            a.merged_with(b)
        c = Batch({"u.y": Column.from_values(DataType.INT64, [1, 2])}, 2)
        with pytest.raises(ExecutionError):
            a.merged_with(c)

    def test_take(self):
        batch = make_batch()
        taken = batch.take(np.array([4, 0]))
        assert taken.n_rows == 2
        assert list(taken.columns["t.x"].raw()) == [5, 1]
