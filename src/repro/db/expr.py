"""Vectorized expression evaluation over column batches.

A *batch* maps qualified column names (``"binding.column"``) to
:class:`~repro.db.types.Column` objects of equal length.  Predicates are
evaluated with an *active-row* mask so that comparison counts honour
short-circuit semantics:

* ``a OR b``: ``b`` is only charged for rows where ``a`` was false;
* ``a AND b``: ``b`` is only charged for rows where ``a`` was true;
* ``x IN (v1, .., vk)``: each row is charged up to its first match.

The numeric *result* is still computed with full-width numpy operations
(that is the vectorized engine's implementation strategy); only the
*work accounting* follows the row-at-a-time semantics of the classical
engines the paper measures, because that is what determines CPU energy.
"""

from __future__ import annotations

import numpy as np

from repro.db.errors import ExecutionError, TypeMismatchError
from repro.db.exec.stats import ExprCounters
from repro.db.sql import ast
from repro.db.types import Column, DataType, date_to_days, take_columns


class Batch:
    """Named columns of equal length (the unit of vectorized execution)."""

    def __init__(self, columns: dict[str, Column], n_rows: int):
        self.columns = columns
        self.n_rows = n_rows

    @classmethod
    def from_table(cls, binding: str, columns: dict[str, Column],
                   n_rows: int) -> "Batch":
        qualified = {
            f"{binding}.{name}": col for name, col in columns.items()
        }
        return cls(qualified, n_rows)

    def column(self, ref: ast.ColumnRef) -> Column:
        if ref.table is not None:
            key = f"{ref.table}.{ref.name}"
            try:
                return self.columns[key]
            except KeyError:
                raise ExecutionError(f"unknown column {key!r}") from None
        if ref.name in self.columns:  # bare output-column name
            return self.columns[ref.name]
        suffix = f".{ref.name}"
        matches = [k for k in self.columns if k.endswith(suffix)]
        if not matches:
            raise ExecutionError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise ExecutionError(
                f"ambiguous column {ref.name!r}: {sorted(matches)}"
            )
        return self.columns[matches[0]]

    def take(self, indices: np.ndarray) -> "Batch":
        """Select rows by position; copies no column values, and one
        row index per source (see :func:`~repro.db.types.take_columns`)."""
        return Batch(take_columns(self.columns, indices), len(indices))

    def head(self, n: int) -> "Batch":
        """The first ``n`` rows by contiguous slicing (LIMIT).

        Clamped to ``[0, n_rows]``: a programmatically built plan can
        carry a negative limit, which must degrade to an empty batch
        (as the arange-based implementation did), not a batch whose
        ``n_rows`` disagrees with its columns.
        """
        n = max(0, min(n, self.n_rows))
        return Batch(
            {k: col.head(n) for k, col in self.columns.items()}, n
        )

    def merged_with(self, other: "Batch") -> "Batch":
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise ExecutionError(f"duplicate columns in join: {overlap}")
        if self.n_rows != other.n_rows:
            raise ExecutionError("cannot merge batches of differing length")
        combined = dict(self.columns)
        combined.update(other.columns)
        return Batch(combined, self.n_rows)


# --------------------------------------------------------------------------
# Scalar (numeric) evaluation.
# --------------------------------------------------------------------------

def evaluate_scalar(expr: ast.Expr, batch: Batch,
                    counters: ExprCounters) -> np.ndarray:
    """Evaluate a numeric expression to a full-length array."""
    if isinstance(expr, ast.ColumnRef):
        col = batch.column(expr)
        if col.dtype is DataType.STRING:
            raise TypeMismatchError(
                f"column {expr.to_sql()} is a string; not numeric"
            )
        return col.raw()
    if isinstance(expr, ast.Literal):
        if isinstance(expr.value, str):
            raise TypeMismatchError("string literal in numeric context")
        return np.full(batch.n_rows, expr.value)
    if isinstance(expr, ast.DateLiteral):
        return np.full(batch.n_rows, date_to_days(expr.iso), dtype=np.int64)
    if isinstance(expr, ast.Arithmetic):
        left = evaluate_scalar(expr.left, batch, counters)
        right = evaluate_scalar(expr.right, batch, counters)
        counters.arithmetic_ops += batch.n_rows
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return np.divide(left, right)
        raise ExecutionError(f"unknown arithmetic op {expr.op!r}")
    if isinstance(expr, ast.Negate):
        counters.arithmetic_ops += batch.n_rows
        return -evaluate_scalar(expr.operand, batch, counters)
    if isinstance(expr, ast.FuncCall):
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name.upper()} outside aggregation context"
            )
        if expr.name == "abs":
            counters.arithmetic_ops += batch.n_rows
            return np.abs(evaluate_scalar(expr.arg, batch, counters))
        raise ExecutionError(f"unknown function {expr.name!r}")
    raise ExecutionError(
        f"expression {expr.to_sql()} is not a scalar expression"
    )


# --------------------------------------------------------------------------
# Predicate evaluation with short-circuit accounting.
# --------------------------------------------------------------------------

def evaluate_predicate(
    expr: ast.Expr,
    batch: Batch,
    counters: ExprCounters,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate a boolean expression to a full-length bool mask.

    ``active`` marks rows still being evaluated for accounting purposes;
    the returned mask is always full length (inactive rows are False).
    """
    if active is None:
        active = np.ones(batch.n_rows, dtype=bool)
    n_active = int(active.sum())

    if isinstance(expr, ast.Or):
        left = evaluate_predicate(expr.left, batch, counters, active)
        remaining = active & ~left
        right = evaluate_predicate(expr.right, batch, counters, remaining)
        return left | right
    if isinstance(expr, ast.And):
        left = evaluate_predicate(expr.left, batch, counters, active)
        right = evaluate_predicate(expr.right, batch, counters, left)
        return left & right
    if isinstance(expr, ast.Not):
        inner = evaluate_predicate(expr.operand, batch, counters, active)
        return active & ~inner
    if isinstance(expr, ast.Comparison):
        counters.comparisons += n_active
        left, right = _comparable_operands(expr.left, expr.right, batch,
                                           counters)
        mask = _compare(expr.op, left, right)
        return mask & active
    if isinstance(expr, ast.Between):
        operand = _scalar_side(expr.operand, batch, counters)
        low = _scalar_side(expr.low, batch, counters)
        high = _scalar_side(expr.high, batch, counters)
        counters.comparisons += n_active
        ge = operand >= low
        # The upper bound is only checked for rows passing the lower one.
        counters.comparisons += int((ge & active).sum())
        return ge & (operand <= high) & active
    if isinstance(expr, ast.InList):
        return _evaluate_in_list(expr, batch, counters, active)
    raise ExecutionError(
        f"expression {expr.to_sql()} is not a boolean predicate"
    )


def _evaluate_in_list(expr: ast.InList, batch: Batch,
                      counters: ExprCounters,
                      active: np.ndarray) -> np.ndarray:
    """IN-list with per-row first-match accounting."""
    result = np.zeros(batch.n_rows, dtype=bool)
    remaining = active.copy()
    for item in expr.items:
        counters.comparisons += int(remaining.sum())
        left, right = _comparable_operands(expr.operand, item, batch,
                                           counters)
        hit = _compare("=", left, right) & remaining
        result |= hit
        remaining &= ~hit
    return result


def _compare(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _scalar_side(expr: ast.Expr, batch: Batch,
                 counters: ExprCounters) -> np.ndarray:
    """Numeric operand of a comparison (raw domain for dates)."""
    return evaluate_scalar(expr, batch, counters)


def _comparable_operands(
    left: ast.Expr, right: ast.Expr, batch: Batch, counters: ExprCounters
) -> tuple[np.ndarray, np.ndarray]:
    """Align the two sides of a comparison into a common raw domain.

    Handles the string cases: column-vs-literal compares dictionary
    codes; column-vs-column decodes (different dictionaries).
    """
    left_col = _string_column(left, batch)
    right_col = _string_column(right, batch)
    if left_col is not None and right_col is not None:
        if left_col.dictionary is right_col.dictionary:
            return left_col.raw(), right_col.raw()
        return left_col.values(), right_col.values()
    if left_col is not None:
        return left_col.raw(), _string_literal_codes(left_col, right, batch)
    if right_col is not None:
        return _string_literal_codes(right_col, left, batch), right_col.raw()
    return (
        evaluate_scalar(left, batch, counters),
        evaluate_scalar(right, batch, counters),
    )


def _string_column(expr: ast.Expr, batch: Batch) -> Column | None:
    if isinstance(expr, ast.ColumnRef):
        col = batch.column(expr)
        if col.dtype is DataType.STRING:
            return col
    return None


def _string_literal_codes(col: Column, expr: ast.Expr,
                          batch: Batch) -> np.ndarray:
    if isinstance(expr, ast.Literal) and isinstance(expr.value, str):
        return np.full(batch.n_rows, col.code_for(expr.value),
                       dtype=np.int32)
    raise TypeMismatchError(
        f"cannot compare string column to {expr.to_sql()}"
    )
