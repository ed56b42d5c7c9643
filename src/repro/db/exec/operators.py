"""Physical-plan interpreter: vectorized operators.

Each operator consumes/produces :class:`~repro.db.expr.Batch` objects and
records its work in the query's :class:`ExecutionStats`.  Column names
stay qualified (``binding.column``) until the projection, which emits
bare output names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.catalog import Catalog
from repro.db.errors import ExecutionError, PlanError
from repro.db.exec.stats import ExecutionStats, ExprCounters
from repro.db.expr import Batch, evaluate_predicate, evaluate_scalar
from repro.db.plan.physical import (
    AggregateSpec,
    PhysAggregate,
    PhysDistinct,
    PhysFilter,
    PhysHashJoin,
    PhysLimit,
    PhysNode,
    PhysProject,
    PhysScan,
    PhysSort,
)
from repro.db.sql import ast
from repro.db.storage.engines import StorageEngine
from repro.db.types import Column, DataType


@dataclass
class ExecutionContext:
    catalog: Catalog
    storage: StorageEngine
    stats: ExecutionStats
    work_mem_bytes: int = 64 * 1024 * 1024


def execute_plan(node: PhysNode, ctx: ExecutionContext) -> Batch:
    if isinstance(node, PhysScan):
        return _scan(node, ctx)
    if isinstance(node, PhysHashJoin):
        return _hash_join(node, ctx)
    if isinstance(node, PhysFilter):
        return _filter(node, ctx)
    if isinstance(node, PhysAggregate):
        return _aggregate(node, ctx)
    if isinstance(node, PhysProject):
        return _project(node, ctx)
    if isinstance(node, PhysDistinct):
        return _distinct(node, ctx)
    if isinstance(node, PhysSort):
        return _sort(node, ctx)
    if isinstance(node, PhysLimit):
        return _limit(node, ctx)
    raise ExecutionError(f"unknown plan node {type(node).__name__}")


# --------------------------------------------------------------------------
# Scans and filters.
# --------------------------------------------------------------------------

def _scan(node: PhysScan, ctx: ExecutionContext) -> Batch:
    table = ctx.catalog.table(node.table_name)
    op = ctx.stats.new_operator(f"scan:{node.binding}")
    columns = ctx.storage.scan(table, ctx.stats)
    if node.columns is not None:
        columns = {
            name: col for name, col in columns.items()
            if name in node.columns
        }
    batch = Batch.from_table(node.binding, columns, table.row_count)
    op.rows_in = table.row_count
    if node.predicate is not None:
        counters = ExprCounters()
        mask = evaluate_predicate(node.predicate, batch, counters)
        op.absorb_expr(counters)
        batch = batch.take(np.flatnonzero(mask))
    op.rows_out = batch.n_rows
    return batch


def _filter(node: PhysFilter, ctx: ExecutionContext) -> Batch:
    batch = execute_plan(node.child, ctx)
    op = ctx.stats.new_operator("filter")
    op.rows_in = batch.n_rows
    counters = ExprCounters()
    mask = evaluate_predicate(node.predicate, batch, counters)
    op.absorb_expr(counters)
    out = batch.take(np.flatnonzero(mask))
    op.rows_out = out.n_rows
    return out


# --------------------------------------------------------------------------
# Hash join.
# --------------------------------------------------------------------------

def _key_array(batch: Batch, ref: ast.ColumnRef) -> np.ndarray:
    col = batch.column(ref)
    if col.dtype is DataType.STRING:
        # Dictionaries differ across tables; join on decoded values.
        return col.values()
    return col.raw()


#: A direct-address table over the build keys' value range is used
#: while it is at most this many slots per joined row.  Measured
#: against the double binary search on build/probe sizes from 25/1k to
#: 200k/50k rows: the table costs 0.16-0.73x the search at 4 slots per
#: row and breaks even between 8 and 32, so 4 sits on the safe side in
#: every shape and caps the table at four int64 per row.
_DENSE_SLOTS_PER_ROW = 4


def _probe_runs(sorted_keys: np.ndarray, probe_keys: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per probe key, the ``(start, length)`` of its run of equal keys
    in ``sorted_keys`` (``start`` is only meaningful where ``length``
    is non-zero).

    The method is chosen from the data.  Signed-integer keys over a
    dense value range (TPC-H keys are 1..N) are counted into a
    ``bincount`` table that answers every probe by address; any other
    keys -- sparse integers, floats (where NaN sorts as equal to NaN),
    objects -- are binary-searched from both sides.
    """
    if (len(sorted_keys) and sorted_keys.dtype.kind == "i"
            and probe_keys.dtype.kind == "i"):
        low, high = int(sorted_keys[0]), int(sorted_keys[-1])
        slots = high - low + 1
        rows = len(sorted_keys) + len(probe_keys)
        if slots <= _DENSE_SLOTS_PER_ROW * rows:
            run_lengths = np.bincount(sorted_keys - low, minlength=slots)
            run_starts = np.cumsum(run_lengths) - run_lengths
            in_range = (probe_keys >= low) & (probe_keys <= high)
            slot = np.where(in_range, probe_keys, low) - low
            return run_starts[slot], np.where(in_range, run_lengths[slot], 0)
    left = np.searchsorted(sorted_keys, probe_keys, side="left")
    right = np.searchsorted(sorted_keys, probe_keys, side="right")
    return left, right - left


def join_indices(build_keys: np.ndarray, probe_keys: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All (build_idx, probe_idx) pairs with equal keys (inner join),
    ordered by probe row, then by build row among equal keys."""
    order = np.argsort(build_keys, kind="stable")
    left, counts = _probe_runs(build_keys[order], probe_keys)
    # Expand only the probe rows that matched: a selective join's
    # unmatched majority would otherwise pass through every array below.
    matched = np.flatnonzero(counts)
    left, counts = left[matched], counts[matched]
    total = int(counts.sum())
    probe_idx = np.repeat(matched, counts)
    if total == 0:
        return np.empty(0, dtype=np.int64), probe_idx
    # Output row j of probe row p reads sorted position
    # left[p] + (j - first output row of p).
    first_out = np.cumsum(counts) - counts
    build_idx = order[np.arange(total) + np.repeat(left - first_out, counts)]
    return build_idx, probe_idx


def _batch_bytes(batch: Batch) -> int:
    width = sum(col.width_bytes for col in batch.columns.values())
    return batch.n_rows * width


def _hash_join(node: PhysHashJoin, ctx: ExecutionContext) -> Batch:
    build = execute_plan(node.build, ctx)
    probe = execute_plan(node.probe, ctx)
    op = ctx.stats.new_operator("hash_join")
    op.rows_in = build.n_rows + probe.n_rows
    op.hash_builds = build.n_rows
    op.hash_probes = probe.n_rows

    build_bytes = _batch_bytes(build)
    if ctx.storage.is_persistent and build_bytes > ctx.work_mem_bytes:
        # Hybrid hash join: partitions beyond work_mem go to temp files
        # (write + read back); the resident fraction stays in memory.
        overflow = 1.0 - ctx.work_mem_bytes / build_bytes
        ctx.storage.spill(
            (build_bytes + _batch_bytes(probe)) * overflow, ctx.stats,
            label="hashjoin",
        )

    build_keys = _key_array(build, node.build_key)
    probe_keys = _key_array(probe, node.probe_key)
    build_idx, probe_idx = join_indices(build_keys, probe_keys)
    out = build.take(build_idx).merged_with(probe.take(probe_idx))

    if node.post_predicates:
        counters = ExprCounters()
        mask = np.ones(out.n_rows, dtype=bool)
        for pred in node.post_predicates:
            mask &= evaluate_predicate(pred, out, counters, mask)
        op.absorb_expr(counters)
        out = out.take(np.flatnonzero(mask))
    op.rows_out = out.n_rows
    return out


# --------------------------------------------------------------------------
# Aggregation / distinct.
# --------------------------------------------------------------------------

def _group_ids(arrays: list[np.ndarray], n_rows: int
               ) -> tuple[np.ndarray, int]:
    """(inverse group id per row, group count) for composite keys."""
    if not arrays:
        return np.zeros(n_rows, dtype=np.int64), (1 if n_rows else 0)
    ids = None
    for arr in arrays:
        _, inverse = np.unique(arr, return_inverse=True)
        uniques = int(inverse.max()) + 1 if len(inverse) else 0
        if ids is None:
            ids = inverse.astype(np.int64)
        else:
            ids = ids * max(1, uniques) + inverse
            # Re-compact after each key to keep ids small (no overflow).
            _, ids = np.unique(ids, return_inverse=True)
            ids = ids.astype(np.int64)
    _, ids = np.unique(ids, return_inverse=True)
    n_groups = int(ids.max()) + 1 if len(ids) else 0
    return ids.astype(np.int64), n_groups


def _first_occurrence(inverse: np.ndarray, n_groups: int) -> np.ndarray:
    first = np.full(n_groups, len(inverse), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return first


def _aggregate(node: PhysAggregate, ctx: ExecutionContext) -> Batch:
    batch = execute_plan(node.child, ctx)
    op = ctx.stats.new_operator("aggregate")
    op.rows_in = batch.n_rows
    op.group_rows = batch.n_rows
    counters = ExprCounters()

    key_arrays: list[np.ndarray] = []
    key_columns: list[Column] = []
    for expr in node.group_exprs:
        if isinstance(expr, ast.ColumnRef):
            col = batch.column(expr)
            key_arrays.append(col.raw())
            key_columns.append(col)
        else:
            values = evaluate_scalar(expr, batch, counters)
            key_arrays.append(values)
            key_columns.append(
                Column(DataType.FLOAT64, np.asarray(values, dtype=np.float64))
            )
    inverse, n_groups = _group_ids(key_arrays, batch.n_rows)
    if not node.group_exprs and batch.n_rows == 0:
        n_groups = 1  # global aggregate over empty input: one row
        inverse = np.zeros(0, dtype=np.int64)

    columns: dict[str, Column] = {}
    if batch.n_rows:
        first = _first_occurrence(inverse, n_groups)
    else:
        first = np.zeros(0, dtype=np.int64)
    for j, col in enumerate(key_columns):
        columns[f"__grp{j}"] = col.take(first)

    for spec in node.aggregates:
        columns[spec.output] = _compute_aggregate(
            spec, batch, inverse, n_groups, counters
        )
    op.absorb_expr(counters)
    op.rows_out = n_groups
    return Batch(columns, n_groups)


def _compute_aggregate(spec: AggregateSpec, batch: Batch,
                       inverse: np.ndarray, n_groups: int,
                       counters: ExprCounters) -> Column:
    if spec.func == "count":
        if spec.arg is None:
            counts = np.bincount(inverse, minlength=n_groups)
        elif spec.distinct:
            col_expr = spec.arg
            if isinstance(col_expr, ast.ColumnRef):
                values = batch.column(col_expr).raw()
            else:
                values = evaluate_scalar(col_expr, batch, counters)
            counters.arithmetic_ops += len(values)
            # Count unique (group, value) pairs per group.
            _, value_ranks = np.unique(values, return_inverse=True)
            pair_ids, _ = _group_ids([inverse, value_ranks],
                                     len(values))
            unique_pairs = np.unique(pair_ids)
            # Recover each unique pair's group via first occurrence.
            firsts = _first_occurrence(pair_ids, len(unique_pairs))
            counts = np.bincount(inverse[firsts], minlength=n_groups)
        else:
            evaluate_scalar(spec.arg, batch, counters)
            counts = np.bincount(inverse, minlength=n_groups)
        return Column(DataType.INT64, counts.astype(np.int64))
    if spec.arg is None:
        raise ExecutionError(f"{spec.func.upper()} requires an argument")
    values = np.asarray(
        evaluate_scalar(spec.arg, batch, counters), dtype=np.float64
    )
    counters.arithmetic_ops += len(values)
    if spec.func == "sum":
        out = np.bincount(inverse, weights=values, minlength=n_groups)
        return Column(DataType.FLOAT64, out)
    if spec.func == "avg":
        sums = np.bincount(inverse, weights=values, minlength=n_groups)
        counts = np.bincount(inverse, minlength=n_groups)
        out = np.divide(sums, np.maximum(counts, 1))
        return Column(DataType.FLOAT64, out)
    if spec.func == "min":
        out = np.full(n_groups, np.inf)
        np.minimum.at(out, inverse, values)
        return Column(DataType.FLOAT64, out)
    if spec.func == "max":
        out = np.full(n_groups, -np.inf)
        np.maximum.at(out, inverse, values)
        return Column(DataType.FLOAT64, out)
    raise ExecutionError(f"unknown aggregate {spec.func!r}")


def _distinct(node: PhysDistinct, ctx: ExecutionContext) -> Batch:
    batch = execute_plan(node.child, ctx)
    op = ctx.stats.new_operator("distinct")
    op.rows_in = batch.n_rows
    op.group_rows = batch.n_rows
    arrays = [col.raw() for col in batch.columns.values()]
    inverse, n_groups = _group_ids(arrays, batch.n_rows)
    if batch.n_rows:
        first = np.sort(_first_occurrence(inverse, n_groups))
    else:
        first = np.zeros(0, dtype=np.int64)
    out = batch.take(first)
    op.rows_out = out.n_rows
    return out


# --------------------------------------------------------------------------
# Projection, sort, limit.
# --------------------------------------------------------------------------

def _project(node: PhysProject, ctx: ExecutionContext) -> Batch:
    batch = execute_plan(node.child, ctx)
    op = ctx.stats.new_operator("project")
    op.rows_in = batch.n_rows
    counters = ExprCounters()
    columns: dict[str, Column] = {}
    for i, item in enumerate(node.items):
        name = item.output_name(i)
        if name in columns:
            raise PlanError(f"duplicate output column {name!r}")
        if isinstance(item.expr, ast.ColumnRef):
            columns[name] = batch.column(item.expr)
        else:
            values = evaluate_scalar(item.expr, batch, counters)
            dtype = (
                DataType.INT64
                if np.issubdtype(np.asarray(values).dtype, np.integer)
                else DataType.FLOAT64
            )
            columns[name] = Column(
                dtype, np.asarray(values)
            )
    op.absorb_expr(counters)
    op.rows_out = batch.n_rows
    return Batch(columns, batch.n_rows)


def _sort_key_array(batch: Batch, expr: ast.Expr) -> np.ndarray:
    if isinstance(expr, ast.ColumnRef):
        col = batch.column(expr)
        if col.dtype is DataType.STRING:
            return col.values()  # lexicographic on decoded strings
        return col.raw()
    counters = ExprCounters()
    return evaluate_scalar(expr, batch, counters)


def _descending_key(values: np.ndarray) -> np.ndarray:
    """An ascending-sortable key that orders ``values`` descending.

    Stable ascending argsort on the returned array equals a stable
    descending sort on ``values`` (ties map to ties, so minor-key order
    is preserved).  Numeric keys negate in place -- no ranking pass --
    except where negation breaks ordering (NaNs, which argsort places
    last either way, and the unnegatable signed-integer minimum); those
    and non-numeric keys (strings, objects) fall back to negated dense
    ranks via ``np.unique``.
    """
    dtype = values.dtype
    if np.issubdtype(dtype, np.floating):
        if not np.isnan(values).any():
            return -values
    elif np.issubdtype(dtype, np.signedinteger):
        if not len(values) or values.min() > np.iinfo(dtype).min:
            return -values
    _, ranks = np.unique(values, return_inverse=True)
    return -ranks


def _sort(node: PhysSort, ctx: ExecutionContext) -> Batch:
    batch = execute_plan(node.child, ctx)
    op = ctx.stats.new_operator("sort")
    op.rows_in = batch.n_rows
    n = batch.n_rows
    op.sort_rows = int(n * max(1, math.ceil(math.log2(n)))) if n > 1 else n
    order = np.arange(n)
    for key in reversed(node.keys):
        values = _sort_key_array(batch, key.expr)[order]
        if key.descending:
            values = _descending_key(values)
        idx = np.argsort(values, kind="stable")
        order = order[idx]
    out = batch.take(order)
    op.rows_out = out.n_rows

    sort_bytes = _batch_bytes(batch)
    if ctx.storage.is_persistent and sort_bytes > ctx.work_mem_bytes:
        # External merge sort: runs beyond work_mem spill and merge back.
        overflow = 1.0 - ctx.work_mem_bytes / sort_bytes
        ctx.storage.spill(sort_bytes * overflow, ctx.stats, label="sort")
    return out


def _limit(node: PhysLimit, ctx: ExecutionContext) -> Batch:
    batch = execute_plan(node.child, ctx)
    op = ctx.stats.new_operator("limit")
    op.rows_in = batch.n_rows
    out = batch.head(node.limit)
    op.rows_out = out.n_rows
    return out
