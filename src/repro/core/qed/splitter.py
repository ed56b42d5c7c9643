"""QED result splitting (the paper's client-side "extra work").

After the aggregated query returns, the application must hand each
original query its own rows.  For the paper's workload -- equality
predicates on one column -- a hash route (value -> query) handles each
row in O(1); the general path re-evaluates each query's predicate.
The split's time and energy are charged to the client, as the paper
does ("we do this in the application logic and include the time and
energy cost").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.qed.aggregator import MergedQuery
from repro.db.exec.stats import ExprCounters
from repro.db.expr import Batch, evaluate_predicate
from repro.db.results import QueryResult
from repro.db.types import Column, DataType


@dataclass
class SplitOutcome:
    """Per-query results recovered from the merged result."""

    results: list[QueryResult]
    rows_routed: int
    unmatched_rows: int

    @property
    def per_query_rows(self) -> list[int]:
        return [r.row_count for r in self.results]


def _result_batch(result: QueryResult) -> Batch:
    return Batch(dict(zip(result.names, result.columns)), result.row_count)


def _take(result: QueryResult, indices: np.ndarray) -> QueryResult:
    columns = _result_batch(result).take(indices).columns
    return QueryResult(names=list(columns), columns=list(columns.values()))


def split_result(merged: MergedQuery, result: QueryResult) -> SplitOutcome:
    """Partition the merged result into per-query results."""
    if merged.hash_routable:
        return _split_by_hash(merged, result)
    return _split_by_predicates(merged, result)


def _routing_slots(merged: MergedQuery) -> dict[object, list[int]]:
    """value -> positions of every query routing on it (duplicate
    queries in a batch share their rows)."""
    slots: dict[object, list[int]] = {}
    for i, value in enumerate(merged.routing_values):
        slots.setdefault(value, []).append(i)
    return slots


def _routing_key(column: Column, literal: object) -> int | float | None:
    """``literal`` in ``column``'s raw domain (dictionary code, days,
    number); ``None`` when no stored value can equal it -- a string
    absent from the dictionary, a type the column cannot hold, a
    number its dtype cannot represent exactly."""
    if column.dtype is DataType.STRING:
        code = column.code_for(literal) if isinstance(literal, str) else -1
        return code if code >= 0 else None
    if isinstance(literal, str):
        return None
    try:
        key = column.raw().dtype.type(literal).item()
    except (OverflowError, ValueError, TypeError):
        return None
    return key if key == literal else None  # exact round trip; NaN never


@dataclass(frozen=True)
class _RoutingIndex:
    """Which merged rows belong to which queries: the one account that
    both the split and its simulated cost are read from.

    A *group* is one distinct routing value some stored value can
    equal; group ids run ``0..len(group_rows) - 1``.
    """

    #: per query: its value's group, -1 when nothing can equal it
    query_group: np.ndarray
    #: per merged row: its value's group, -1 when no query asked for it
    row_group: np.ndarray
    #: per group: how many rows carry its value
    group_rows: np.ndarray

    @property
    def unmatched_rows(self) -> int:
        return len(self.row_group) - int(self.group_rows.sum())

    @property
    def extra_deliveries(self) -> int:
        """Row copies beyond the first: a row whose value ``k`` queries
        share is delivered ``k`` times."""
        queries = np.bincount(self.query_group[self.query_group >= 0],
                              minlength=len(self.group_rows))
        return int((self.group_rows * (queries - 1)).sum())


def _routing_index(merged: MergedQuery, result: QueryResult
                   ) -> _RoutingIndex:
    column = result.column(merged.routing_column)
    values = column.raw()
    keyed = []
    for literal, slots in _routing_slots(merged).items():
        key = _routing_key(column, literal)
        if key is not None:
            keyed.append((key, slots))
    keyed.sort(key=lambda pair: pair[0])
    query_group = np.full(merged.batch_size, -1, dtype=np.int64)
    for group, (_, slots) in enumerate(keyed):
        query_group[slots] = group
    if not keyed:
        return _RoutingIndex(
            query_group, np.full(len(values), -1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    keys = np.asarray([key for key, _ in keyed], dtype=values.dtype)
    nearest = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    row_group = np.where(keys[nearest] == values, nearest, -1)
    group_rows = np.bincount(row_group + 1, minlength=len(keys) + 1)[1:]
    return _RoutingIndex(query_group, row_group, group_rows)


def _split_by_hash(merged: MergedQuery, result: QueryResult
                   ) -> SplitOutcome:
    index = _routing_index(merged, result)
    # One stable sort buckets every row in result order: the unmatched
    # rows, then each group's, then -- past the last cut -- nothing,
    # which is what a query no stored value can equal receives.  Sorted
    # on the narrowest integer that holds every group id, because numpy
    # radix-sorts keys of up to 16 bits and a batch is tens of queries.
    narrow = np.min_scalar_type(-len(index.group_rows) - 1)
    order = np.argsort(index.row_group.astype(narrow), kind="stable")
    cuts = index.unmatched_rows + np.concatenate(
        ([0], np.cumsum(index.group_rows))
    )
    buckets = np.split(order, cuts)
    results = [
        _take(result, buckets[group + 1 if group >= 0 else -1])
        for group in index.query_group
    ]
    return SplitOutcome(
        results=results,
        rows_routed=result.row_count,
        unmatched_rows=index.unmatched_rows,
    )


def _split_by_predicates(merged: MergedQuery, result: QueryResult
                         ) -> SplitOutcome:
    """General split: each query keeps the rows its predicate accepts.

    With overlapping predicates a row may belong to several queries,
    matching the semantics of running each query individually.
    """
    batch = _result_batch(result)
    counters = ExprCounters()
    claimed = np.zeros(result.row_count, dtype=bool)
    results = []
    for pred in merged.predicates:
        mask = evaluate_predicate(pred, batch, counters)
        claimed |= mask
        results.append(_take(result, np.flatnonzero(mask)))
    return SplitOutcome(
        results=results,
        rows_routed=result.row_count,
        unmatched_rows=int((~claimed).sum()),
    )


def split_cost_rows(merged: MergedQuery, result: QueryResult) -> int:
    """Rows' worth of client split work.

    Hash routing costs one lookup per merged row plus one delivery per
    query a row lands in -- with duplicate routing values a row is
    copied to every query sharing its value, so duplicates add only
    their delivery copies, never a per-predicate pass.  The general
    (predicate) path re-evaluates every query's predicate over every
    row.
    """
    if merged.hash_routable:
        if len(_routing_slots(merged)) == merged.batch_size:
            return result.row_count  # no value shared: no extra copy
        return (result.row_count
                + _routing_index(merged, result).extra_deliveries)
    return result.row_count * merged.batch_size
