"""The eager gather: ``take`` copying every column's values at once.

This is the executor's original row selection, kept only as the oracle
for the lazy one in :mod:`repro.db.types` (a column holds its base array
and a row index and gathers on first read).  Both functions are the
former method bodies verbatim; :func:`patched` swaps them in for
``Column.take`` and ``Batch.take`` so whole executions can run both ways.
"""

from __future__ import annotations

import numpy as np

from repro.db.expr import Batch
from repro.db.types import Column


def column_take(self: Column, indices: np.ndarray) -> Column:
    """Select rows by position (shares the dictionary)."""
    col = Column(self.dtype, self.data[indices], self.dictionary)
    col._index = self._index
    return col


def batch_take(self: Batch, indices: np.ndarray) -> Batch:
    return Batch(
        {k: col.take(indices) for k, col in self.columns.items()},
        len(indices),
    )


def patched(monkeypatch) -> None:
    """Route every ``Column.take``/``Batch.take`` through the eager copy."""
    monkeypatch.setattr(Column, "take", column_take)
    monkeypatch.setattr(Batch, "take", batch_take)
