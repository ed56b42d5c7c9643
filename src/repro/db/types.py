"""Column data types and value handling.

Columns are numpy-backed:

* ``INT64``/``FLOAT64`` map directly to numpy dtypes.
* ``DATE`` is stored as int32 days since 1970-01-01 (``date_to_days``).
* ``STRING`` is dictionary-encoded: an int32 code array plus a list of
  distinct values, which makes equality predicates and group-bys cheap
  (compare codes) and keeps memory compact for TPC-H's low-cardinality
  string columns (region names, flags).
"""

from __future__ import annotations

import datetime
import enum

import numpy as np

from repro.db.errors import TypeMismatchError

_EPOCH = datetime.date(1970, 1, 1)


class DataType(enum.Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"

    @property
    def width_bytes(self) -> int:
        """Approximate on-disk width, used for page-count estimation."""
        return {
            DataType.INT64: 8,
            DataType.FLOAT64: 8,
            DataType.STRING: 16,
            DataType.DATE: 4,
        }[self]


def date_to_days(value: str | datetime.date) -> int:
    """Convert a date (or 'YYYY-MM-DD' string) to days since epoch."""
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    return (value - _EPOCH).days


def days_to_date(days: int) -> datetime.date:
    return _EPOCH + datetime.timedelta(days=int(days))


class Column:
    """A typed column of values.

    For STRING columns, ``data`` holds int32 dictionary codes and
    ``dictionary`` the distinct values (code -> value).  For all other
    types ``data`` holds the values directly.

    Columns are materialized late (Abadi et al., ICDE 2007): ``take``
    copies no values but returns a column holding a *base* array and a
    row index into it, composing indices through chains of takes.  Such
    a column gathers ``base[rows]`` once, when ``data`` is first read,
    and keeps the result; ``len`` reads the index and gathers nothing.
    A gathered column keeps its base and index too, so later takes
    still compose the index it shares with the other columns of its
    source (see :func:`take_columns`).
    """

    __slots__ = ("dtype", "dictionary", "_data", "_base", "_rows", "_index")

    def __init__(self, dtype: DataType, data: np.ndarray,
                 dictionary: list[str] | None = None):
        self.dtype = dtype
        self.dictionary = dictionary
        # A base column holds its values in ``_data``; a taken column
        # holds ``_base`` and ``_rows``, and ``_data`` once gathered.
        self._data: np.ndarray | None = data
        self._base: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._index: dict[str, int] | None = None
        if dtype is DataType.STRING and dictionary is None:
            raise TypeMismatchError("STRING columns need a dictionary")
        if dtype is not DataType.STRING and dictionary is not None:
            raise TypeMismatchError("only STRING columns carry a dictionary")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_values(cls, dtype: DataType, values) -> "Column":
        """Build a column from a plain Python sequence."""
        if dtype is DataType.INT64:
            return cls(dtype, np.asarray(values, dtype=np.int64))
        if dtype is DataType.FLOAT64:
            return cls(dtype, np.asarray(values, dtype=np.float64))
        if dtype is DataType.DATE:
            days = [
                v if isinstance(v, (int, np.integer)) else date_to_days(v)
                for v in values
            ]
            return cls(dtype, np.asarray(days, dtype=np.int32))
        if dtype is DataType.STRING:
            dictionary: list[str] = []
            index: dict[str, int] = {}
            codes = np.empty(len(values), dtype=np.int32)
            for i, v in enumerate(values):
                code = index.get(v)
                if code is None:
                    code = len(dictionary)
                    index[v] = code
                    dictionary.append(v)
                codes[i] = code
            col = cls(dtype, codes, dictionary)
            col._index = index
            return col
        raise TypeMismatchError(f"unsupported dtype {dtype}")

    @classmethod
    def from_codes(cls, codes: np.ndarray,
                   dictionary: list[str]) -> "Column":
        return cls(DataType.STRING, np.asarray(codes, dtype=np.int32),
                   dictionary)

    # -- basics ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The values; a column from ``take`` gathers them here, once."""
        if self._data is None:
            self._data = self._base[self._rows]
        return self._data

    def __len__(self) -> int:
        return len(self._data if self._rows is None else self._rows)

    def take(self, indices: np.ndarray) -> "Column":
        """Select rows by position (shares the dictionary; copies no
        values -- see the class docstring)."""
        return self._over(self._compose(indices))

    def _compose(self, indices: np.ndarray) -> np.ndarray:
        """The index into this column's base that selects ``indices``."""
        return indices if self._rows is None else self._rows[indices]

    def _over(self, rows: np.ndarray) -> "Column":
        """This column's base read through ``rows`` (from ``_compose``)."""
        col = Column.__new__(Column)
        col.dtype = self.dtype
        col.dictionary = self.dictionary
        col._index = self._index
        col._base = self._data if self._rows is None else self._base
        col._data = None
        col._rows = rows
        return col

    def head(self, n: int) -> "Column":
        """The first ``n`` rows (shares the dictionary).

        Copies only the ``n`` kept rows, so the result owns its memory
        -- a cached LIMIT result must not pin the full pre-limit arrays
        alive through a numpy view or a pending row index.
        """
        if self._data is None:
            data = self._base[self._rows[:n]]
        else:
            data = self._data[:n].copy()
        col = Column(self.dtype, data, self.dictionary)
        col._index = self._index
        return col

    def code_for(self, value: str) -> int:
        """Dictionary code for ``value`` (-1 if absent, matching nothing)."""
        if self.dtype is not DataType.STRING:
            raise TypeMismatchError("code_for only applies to STRING columns")
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.dictionary)}
        return self._index.get(value, -1)

    def values(self) -> np.ndarray:
        """Decoded values (object array for strings, dates as date objects)."""
        if self.dtype is DataType.STRING:
            lookup = np.asarray(self.dictionary, dtype=object)
            return lookup[self.data]
        if self.dtype is DataType.DATE:
            return np.asarray(
                [days_to_date(d) for d in self.data], dtype=object
            )
        return self.data

    def raw(self) -> np.ndarray:
        """The underlying numeric array (codes for strings, days for dates)."""
        return self.data

    @property
    def width_bytes(self) -> int:
        return self.dtype.width_bytes


def take_columns(columns: dict[str, Column], indices: np.ndarray
                 ) -> dict[str, Column]:
    """``{name: col.take(indices)}``, composing each row index once.

    The columns of one source that went through the same takes share
    one row index object; it is composed with ``indices`` once and the
    result shared again, so selecting rows of a join output costs one
    index per source table, not one copy per column.
    """
    composed: dict[int, np.ndarray] = {}
    out = {}
    for name, col in columns.items():
        source = id(col._rows)  # every base column: id(None)
        rows = composed.get(source)
        if rows is None:
            rows = composed[source] = col._compose(indices)
        out[name] = col._over(rows)
    return out


def literal_to_comparable(column: Column, value) -> float | int:
    """Convert a literal to the column's raw comparison domain."""
    if column.dtype is DataType.STRING:
        if not isinstance(value, str):
            raise TypeMismatchError(
                f"cannot compare STRING column to {type(value).__name__}"
            )
        return column.code_for(value)
    if column.dtype is DataType.DATE:
        if isinstance(value, str):
            return date_to_days(value)
        if isinstance(value, datetime.date):
            return date_to_days(value)
        return int(value)
    if isinstance(value, bool):
        raise TypeMismatchError("boolean literals are not comparable")
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeMismatchError(
            f"cannot compare numeric column to {type(value).__name__}"
        )
    return value
