"""Catalog: registered tables plus per-column statistics.

Statistics (row counts, distinct counts, min/max) feed the optimizer's
cardinality estimation, which drives both join ordering and the
time/energy cost estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.errors import CatalogError
from repro.db.schema import Table, TableSchema
from repro.db.types import DataType


@dataclass(frozen=True)
class ColumnStats:
    distinct: int
    min_value: float | None
    max_value: float | None

    def selectivity_eq(self) -> float:
        """Estimated selectivity of an equality predicate."""
        return 1.0 / max(1, self.distinct)

    def selectivity_range(self, low: float | None, high: float | None
                          ) -> float:
        """Estimated selectivity of a (half-)open range predicate."""
        if self.min_value is None or self.max_value is None:
            return 1.0 / 3.0
        span = self.max_value - self.min_value
        if span <= 0:
            return 1.0
        lo = self.min_value if low is None else max(low, self.min_value)
        hi = self.max_value if high is None else min(high, self.max_value)
        if hi <= lo:
            return 0.0
        return min(1.0, (hi - lo) / span)


@dataclass(frozen=True)
class TableStats:
    row_count: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"no statistics for column {name!r}") from None


def analyze(table: Table) -> TableStats:
    """Statistics of a loaded table (full-scan ANALYZE).

    Collected once per :class:`Table` and kept on it: a table's data
    never changes once built, so every catalog that registers the same
    table reads the same statistics.
    """
    if table.stats is None:
        table.stats = _collect_stats(table)
    return table.stats


def _collect_stats(table: Table) -> TableStats:
    col_stats: dict[str, ColumnStats] = {}
    for cdef in table.schema.columns:
        col = table.column(cdef.name)
        raw = col.raw()
        if len(raw) == 0:
            col_stats[cdef.name] = ColumnStats(0, None, None)
            continue
        if cdef.dtype is DataType.STRING:
            distinct = len(col.dictionary or [])
            col_stats[cdef.name] = ColumnStats(distinct, None, None)
        else:
            distinct = int(len(np.unique(raw)))
            col_stats[cdef.name] = ColumnStats(
                distinct, float(raw.min()), float(raw.max())
            )
    return TableStats(table.row_count, col_stats)


class Catalog:
    """Name -> table registry; statistics ride on the tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def register(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        analyze(table)  # at load, not inside the first plan

    def drop(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"no table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def schema(self, name: str) -> TableSchema:
        return self.table(name).schema

    def stats(self, name: str) -> TableStats:
        return analyze(self.table(name))

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)
