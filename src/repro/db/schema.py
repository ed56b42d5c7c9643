"""Table schemas and the in-memory table representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.db.errors import CatalogError, TypeMismatchError
from repro.db.types import Column, DataType

if TYPE_CHECKING:
    from repro.db.catalog import TableStats


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name {self.name!r}")


@dataclass
class TableSchema:
    name: str
    columns: list[ColumnDef]
    _by_name: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table name must be non-empty")
        self._by_name = {}
        for i, col in enumerate(self.columns):
            if col.name in self._by_name:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            self._by_name[col.name] = i

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> ColumnDef:
        try:
            return self.columns[self._by_name[name]]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def row_width_bytes(self) -> int:
        """Row width for page-count estimation (row-store layout)."""
        return sum(c.dtype.width_bytes for c in self.columns) + 8  # header


class Table:
    """A loaded table: schema plus one :class:`Column` per column."""

    def __init__(self, schema: TableSchema, columns: dict[str, Column]):
        self.schema = schema
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise CatalogError(
                f"table {schema.name!r} missing columns: {missing}"
            )
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise CatalogError("all columns must have the same length")
        for cdef in schema.columns:
            col = columns[cdef.name]
            if col.dtype is not cdef.dtype:
                raise TypeMismatchError(
                    f"column {cdef.name!r}: expected {cdef.dtype}, "
                    f"got {col.dtype}"
                )
        self.columns = columns
        self.row_count = lengths.pop() if lengths else 0
        #: set by :func:`repro.db.catalog.analyze` on first use
        self.stats: TableStats | None = None

    @classmethod
    def from_arrays(cls, schema: TableSchema, data: dict[str, object]
                    ) -> "Table":
        """Build a table from plain sequences/arrays keyed by column name."""
        missing = [c.name for c in schema.columns if c.name not in data]
        if missing:
            raise CatalogError(
                f"table {schema.name!r} missing columns: {missing}"
            )
        columns = {
            cdef.name: Column.from_values(cdef.dtype, data[cdef.name])
            for cdef in schema.columns
        }
        return cls(schema, columns)

    @property
    def name(self) -> str:
        return self.schema.name

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    @property
    def size_bytes(self) -> int:
        return self.row_count * self.schema.row_width_bytes

    def row(self, i: int) -> tuple:
        """One row as a tuple of decoded values (testing convenience)."""
        out = []
        for cdef in self.schema.columns:
            col = self.columns[cdef.name]
            if col.dtype is DataType.STRING:
                out.append(col.dictionary[col.data[i]])
            else:
                out.append(col.data[i].item())
        return tuple(out)

    def select_rows(self, mask_or_idx: np.ndarray) -> "Table":
        """A new table holding the selected rows."""
        if mask_or_idx.dtype == np.bool_:
            indices = np.flatnonzero(mask_or_idx)
        else:
            indices = mask_or_idx
        cols = {
            name: col.take(indices) for name, col in self.columns.items()
        }
        return Table(self.schema, cols)
