"""The schedule-table measurement kernels against the per-node forms
they replaced (``measure_oracle.py``), bit for bit, on drawn tables.

Node totals are ``bincount``s over ``node_idx`` in table order, which
meet each node's rows in the order the node ran them -- the order the
per-node gathers summed them in -- whether the table is in arrival
order (a vectorized run) or node-major (a loop run).  The windowing
rewrites are exact inside the report's tiling, including on window
edges, one ulp either side of them, outside ``[0, horizon]`` and at
NaN; a span column already inside ``[0, horizon]`` skips the clip.
A table's served queries come out in stream-index order, tied arrival
times included, on either engine's table.  Floats compare by
``float.hex``, so a NaN equals a NaN and ``-0.0`` does not equal
``0.0``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import measure_oracle as oracle
from window_oracle import response_columns
from repro.cluster.measure import (
    ClusterMeasurement,
    ScheduledWork,
    _clipped,
    _count_per_window,
    _overlap_per_window,
    _window_of,
)
from repro.cluster.playback import ScheduleTable, window_table
from repro.hardware.cpu import STOCK_SETTING
from repro.workloads.arrivals import ArrivalStream

WINDOWS = (0.1, 0.3, 7 / 3, 30.0)


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values).tolist()]


@st.composite
def runs(draw):
    """A tiling, and a table, busy spans and response times that sit
    on, next to, between and outside its window edges."""
    window_s = draw(st.sampled_from(WINDOWS))
    horizon = draw(st.one_of(
        st.sampled_from([0.0, 0.1 + 0.1 + 0.1]),
        st.floats(0.05, 12.0 * window_s),
    ))
    # The report's own tiling: each window's bounds are its edges.
    windows = ClusterMeasurement(
        horizon, [], response_columns()
    ).window_report(window_s)
    los = np.array([w.start_s for w in windows])
    his = np.array([w.end_s for w in windows])
    edges = np.union1d(los, his).tolist()
    # NaN only in some examples: one NaN makes its whole node total NaN.
    times = st.one_of(
        st.sampled_from(edges).flatmap(lambda edge: st.sampled_from([
            edge, math.nextafter(edge, -math.inf),
            math.nextafter(edge, math.inf),
        ])),
        st.floats(-1.0, horizon + 1.0),
        *([st.just(math.nan)] if draw(st.booleans()) else []),
    )
    lengths = st.one_of(
        st.just(0.0),
        st.floats(0.0, window_s),
        st.sampled_from([window_s, 2.5 * window_s, 4.0 * window_s]),
    )
    n_nodes = draw(st.integers(1, 6))
    # Some nodes get no rows: rows go to the first ``used`` nodes only.
    used = draw(st.integers(1, n_nodes))
    # A span ends a drawn length after its start, or at a drawn time.
    ends = st.one_of(
        lengths.map(lambda length: (True, length)),
        times.map(lambda at: (False, at)),
    )
    n_rows = draw(st.integers(0, 60))
    rows = draw(st.lists(
        st.tuples(st.integers(0, used - 1), st.integers(0, 4), times, ends),
        min_size=n_rows, max_size=n_rows,
    ))
    node_idx = np.array([r[0] for r in rows], dtype=np.int64)
    if draw(st.booleans()):  # node-major, as a loop run writes it
        rows = [rows[i] for i in np.argsort(node_idx, kind="stable")]
    node_idx = np.array([r[0] for r in rows], dtype=np.int64)
    start = np.array([r[2] for r in rows], dtype=np.float64)
    end = np.array([
        s + value if extends else value
        for s, (extends, value) in zip(start.tolist(), (r[3] for r in rows))
    ], dtype=np.float64)
    if draw(st.booleans()):  # inside [0, horizon] but for any NaN
        start, end = (np.clip(x, 0.0, horizon) for x in (start, end))
    table = ScheduleTable(
        node_idx=node_idx,
        trace_idx=np.array([r[1] for r in rows], dtype=np.int64),
        start_s=start, end_s=end,
        query_idx=np.zeros(0, dtype=np.int64),
    )
    # Responses: a small pool of arrival times ties some of them, each
    # with its own completion.
    pool = draw(st.lists(times, min_size=1, max_size=8))
    n_resp = draw(st.integers(0, 30))
    arrival = np.array(draw(st.lists(
        st.one_of(st.sampled_from(pool), times),
        min_size=n_resp, max_size=n_resp,
    )), dtype=np.float64)
    if draw(st.booleans()):
        arrival = np.sort(arrival)
    completion = np.array(draw(st.lists(
        times, min_size=n_resp, max_size=n_resp,
    )), dtype=np.float64)
    return los, his, n_nodes, table, (arrival, completion)


@settings(max_examples=400, derandomize=True, database=None,
          deadline=None)
@given(run=runs())
def test_kernels_match_the_per_node_forms(run):
    los, his, n_nodes, table, responses = run
    node_idx, start, end = table.node_idx, table.start_s, table.end_s

    assert _hexes(table.busy_s(n_nodes)) == _hexes(
        oracle.busy_s(node_idx, start, end, n_nodes)
    )
    counts = table.trace_counts(n_nodes, 5)
    want = oracle.trace_counts(node_idx, table.trace_idx, n_nodes, 5)
    for j in range(n_nodes):
        assert _hexes(counts[j].astype(np.float64)) == _hexes(want[j])

    assert _hexes(_overlap_per_window(
        node_idx, start, end, n_nodes, los, his
    )) == _hexes(oracle.overlap_per_window(
        oracle.busy_columns(node_idx, start, end, n_nodes), los, his
    ))
    # A column already inside [0, horizon] is read as it is; one with a
    # NaN or a time outside is clipped.
    for x in (start, end):
        inside = bool(((x >= 0.0) & (x <= his[-1])).all())
        assert (_clipped(x, his[-1]) is x) == inside

    for t in (start, end, *responses):
        assert (_window_of(t, los, his)
                == oracle.window_of(t, los, his)).all()
        assert (_count_per_window(np.sort(t), los, his)
                == oracle.count_per_window(t, los, his)).all()


@st.composite
def served_runs(draw):
    """A stream whose arrival times tie, some of its arrivals shed, and
    the windows that answered the rest: a loop run's node-major
    windows, each answering up to three queries in any order, or a
    vectorized run's one window per served arrival, in stream order."""
    n = draw(st.integers(0, 30))
    pool = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
    stream = ArrivalStream(
        sorted(draw(st.lists(st.sampled_from(pool), min_size=n,
                             max_size=n))),
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        ("q0", "q1", "q2"),
    )
    served = [i for i in range(n) if draw(st.booleans())]
    n_nodes = draw(st.integers(1, 4))
    names = [f"n{j}" for j in range(n_nodes)]
    spans = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    if draw(st.booleans()):
        order = draw(st.permutations(served))
        nodes = [
            SimpleNamespace(spec=SimpleNamespace(setting=STOCK_SETTING),
                            scheduled=[])
            for _ in range(n_nodes)
        ]
        answered = []
        k = 0
        while k < len(order):
            queries = tuple(order[k:k + draw(st.integers(1, 3))])
            j = draw(st.integers(0, n_nodes - 1))
            start, end = draw(spans)
            nodes[j].scheduled.append(
                ScheduledWork("q0", start, end, queries)
            )
            answered += [(i, j, start, end) for i in queries]
            k += len(queries)
        return stream, names, window_table(nodes, {"q0": None}), answered
    answered = [
        (i, draw(st.integers(0, n_nodes - 1)), *draw(spans))
        for i in served
    ]
    table = ScheduleTable(
        node_idx=np.array([a[1] for a in answered], dtype=np.int64),
        trace_idx=np.zeros(len(answered), dtype=np.int64),
        start_s=np.array([a[2] for a in answered], dtype=np.float64),
        end_s=np.array([a[3] for a in answered], dtype=np.float64),
        query_idx=(None if len(served) == n
                   else np.array(served, dtype=np.int64)),
    )
    return stream, names, table, answered


@settings(max_examples=200, derandomize=True, database=None,
          deadline=None)
@given(run=served_runs())
def test_served_queries_come_out_in_stream_order(run):
    stream, names, table, answered = run
    got = table.response_columns(stream, names)
    want = oracle.in_stream_order(stream, names, answered)
    assert (got.distinct, got.node_names) == (want.distinct, want.node_names)
    served = (np.arange(len(got)) if got.query_idx is None
              else got.query_idx)
    assert served.tolist() == want.query_idx.tolist()
    for name in ("sql_idx", "node_idx"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    for name in ("arrival_s", "start_s", "completion_s"):
        assert _hexes(getattr(got, name)) == _hexes(getattr(want, name))
