"""The per-node measurement forms the schedule-table kernels replaced
(test oracle).

Each node's busy windows were gathered out of the table -- through a
stable node sort when the rows were in arrival order -- and summed with
``np.cumsum``; a vectorized run's trace counts came from the same
gathers; the phase report concatenated the per-node copies back into
one array; a time's window was tested against both window bounds; and
the served queries are sorted on their stream index, one tuple each.
``test_measure_kernels.py`` holds the column kernels in
``repro.cluster`` to these forms bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.measure import ResponseColumns


def node_rows(node_idx: np.ndarray, n_nodes: int) -> list:
    """Each node's rows in table order: the ``offsets`` and stable
    ``order`` a table carried, read through ``rows_for``."""
    order = np.argsort(node_idx, kind="stable")
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(node_idx, minlength=n_nodes), out=offsets[1:])
    return [order[offsets[j]:offsets[j + 1]] for j in range(n_nodes)]


def busy_columns(node_idx, start_s, end_s, n_nodes: int) -> list:
    """Every node's ``(starts, ends)`` copy of its busy windows."""
    return [
        (start_s[rows], end_s[rows]) for rows in node_rows(node_idx, n_nodes)
    ]


def busy_s(node_idx, start_s, end_s, n_nodes: int) -> list[float]:
    """Summed window by window, in the order each node ran them."""
    return [
        float(np.cumsum(ends - starts)[-1]) if len(ends) else 0.0
        for starts, ends in busy_columns(node_idx, start_s, end_s, n_nodes)
    ]


def trace_counts(node_idx, trace_idx, n_nodes: int, n_traces: int) -> list:
    return [
        np.bincount(trace_idx[rows], minlength=n_traces).astype(np.float64)
        for rows in node_rows(node_idx, n_nodes)
    ]


def window_of(t: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    k = np.searchsorted(los, t, side="right") - 1
    closes = (k == len(los) - 1) & (t == his[k])
    return np.where((k >= 0) & ((t < his[k]) | closes), k, -1)


def count_per_window(t, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    k = window_of(np.asarray(t, dtype=np.float64), los, his)
    return np.bincount(k[k >= 0], minlength=len(los))


def overlap_per_window(
    columns: list[tuple[np.ndarray, np.ndarray]],
    los: np.ndarray, his: np.ndarray,
) -> np.ndarray:
    n_nodes, count = len(columns), len(los)
    cells = n_nodes * count
    if not cells:
        return np.zeros((n_nodes, count))
    start = np.clip(np.concatenate([s for s, _ in columns]), 0.0, his[-1])
    end = np.clip(np.concatenate([e for _, e in columns]), 0.0, his[-1])
    row = count * np.repeat(
        np.arange(n_nodes), [len(s) for s, _ in columns]
    )
    first = np.searchsorted(los, start, side="right") - 1
    final = np.maximum(np.searchsorted(los, end, side="left") - 1, first)
    seconds = np.zeros(cells)  # bincount of nothing is int, not float
    seconds += np.bincount(
        row + first, weights=np.minimum(end, his[first]) - start,
        minlength=cells,
    )
    crosses = np.flatnonzero(final > first)
    if crosses.size:
        row, first, final = row[crosses], first[crosses], final[crosses]
        seconds += np.bincount(
            row + final, weights=end[crosses] - los[final],
            minlength=cells,
        )
        covering = np.cumsum(
            np.bincount(row + first + 1, minlength=cells + 1)
            - np.bincount(row + final, minlength=cells + 1)
        )[:cells]
        seconds += covering * np.tile(his - los, n_nodes)
    return seconds.reshape(n_nodes, count)


def in_stream_order(stream, node_names, answered) -> ResponseColumns:
    """``answered``: one ``(stream index, node, start, completion)``
    per served query, in any order."""
    rows = sorted(answered)
    served = [row[0] for row in rows]
    arrivals = [stream[i] for i in served]
    return ResponseColumns(
        stream.distinct, tuple(node_names),
        np.array([stream.distinct.index(a.sql) for a in arrivals],
                 dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int64),
        np.array([a.time_s for a in arrivals], dtype=np.float64),
        np.array([row[2] for row in rows], dtype=np.float64),
        np.array([row[3] for row in rows], dtype=np.float64),
        np.array(served, dtype=np.int64),
    )
