"""Per-row reference for the QED hash split (test oracle).

This is the loop ``repro.core.qed.splitter._split_by_hash`` shipped
before it became array-at-a-time: one ``dict`` lookup per merged row on
the row's decoded Python value.  The array split must hand every query
the same rows in the same order and count the same ``unmatched_rows``;
``split_cost_reference`` is the separate multiplicity count
``split_cost_rows`` used to carry beside it.
"""

from __future__ import annotations

import numpy as np

from repro.core.qed.aggregator import MergedQuery
from repro.core.qed.splitter import SplitOutcome, _take
from repro.db.results import QueryResult
from repro.db.types import DataType


def _routing_array(result: QueryResult, column: str) -> np.ndarray:
    col = result.column(column)
    if col.dtype is DataType.STRING:
        return col.values()
    return col.raw()


def _routing_slots(merged: MergedQuery) -> dict[object, list[int]]:
    slots: dict[object, list[int]] = {}
    for i, value in enumerate(merged.routing_values):
        slots.setdefault(value, []).append(i)
    return slots


def split_by_hash_reference(merged: MergedQuery, result: QueryResult
                            ) -> SplitOutcome:
    values = _routing_array(result, merged.routing_column)
    slots_of = _routing_slots(merged)
    buckets: list[list[int]] = [[] for _ in merged.routing_values]
    unmatched = 0
    for row, value in enumerate(values):
        key = value.item() if isinstance(value, np.generic) else value
        slots = slots_of.get(key)
        if slots is None:
            unmatched += 1
        else:
            for slot in slots:
                buckets[slot].append(row)
    results = [
        _take(result, np.asarray(bucket, dtype=np.int64))
        for bucket in buckets
    ]
    return SplitOutcome(
        results=results,
        rows_routed=result.row_count,
        unmatched_rows=unmatched,
    )


def split_cost_reference(merged: MergedQuery, result: QueryResult) -> int:
    slots_of = _routing_slots(merged)
    if all(len(slots) == 1 for slots in slots_of.values()):
        return result.row_count
    values = _routing_array(result, merged.routing_column)
    unique, counts = np.unique(values, return_counts=True)
    extra = 0
    for value, count in zip(unique, counts):
        key = value.item() if isinstance(value, np.generic) else value
        multiplicity = len(slots_of.get(key, ()))
        if multiplicity > 1:
            extra += int(count) * (multiplicity - 1)
    return result.row_count + extra
