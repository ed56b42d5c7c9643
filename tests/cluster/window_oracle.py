"""The per-window scan ``ClusterMeasurement.window_report`` used to be
(test oracle).

For every window it rescans every response and every busy/wake/sleep
span of every node -- O(windows x (responses + spans)) -- which is what
made the report cost more than the schedule it reports on.  The binned
one-pass report in ``repro.cluster.measure`` must agree with it to
<= 1e-9 on every field of every window.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.measure import (
    ClusterMeasurement,
    PhaseWindow,
    QueryResponse,
    ResponseColumns,
)


def response_columns(*responses: QueryResponse) -> ResponseColumns:
    """Hand-written responses in the stored (columnar) form: response
    ``k`` answers arrival ``k`` of the stream."""
    sqls = list(dict.fromkeys(r.sql for r in responses))
    nodes = list(dict.fromkeys(r.node for r in responses))
    return ResponseColumns(
        tuple(sqls), tuple(nodes),
        np.array([sqls.index(r.sql) for r in responses], dtype=np.int64),
        np.array([nodes.index(r.node) for r in responses], dtype=np.int64),
        *(np.array([getattr(r, name) for r in responses], dtype=np.float64)
          for name in ("arrival_s", "start_s", "completion_s")),
        np.arange(len(responses)),
    )


def busy_windows(*per_node) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hand-written busy spans, one sequence per node, as a
    measurement's ``(node_idx, start_s, end_s)`` columns."""
    rows = [(j, s, e) for j, spans in enumerate(per_node) for s, e in spans]
    return (
        np.array([j for j, _, _ in rows], dtype=np.int64),
        np.array([s for _, s, _ in rows], dtype=np.float64),
        np.array([e for _, _, e in rows], dtype=np.float64),
    )


def _overlap(spans, lo: float, hi: float) -> float:
    """Total length of ``spans`` clipped to the window ``[lo, hi)``."""
    return sum(
        max(0.0, min(end, hi) - max(start, lo)) for start, end in spans
    )


def _overlap_columns(starts, ends, lo: float, hi: float) -> float:
    return float(
        np.clip(
            np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, None
        ).sum()
    )


def window_report_scan(
    m: ClusterMeasurement, window_s: float
) -> list[PhaseWindow]:
    count = (
        max(1, int(np.ceil(m.horizon_s / window_s - 1e-9)))
        if m.horizon_s > 0 else 1
    )
    r_arrival = m.response_columns.arrival_s
    r_completion = m.response_columns.completion_s
    r_values = r_completion - r_arrival
    out: list[PhaseWindow] = []
    for k in range(count):
        lo = k * window_s
        last = k == count - 1
        hi = (
            max(0.0, m.horizon_s) if last
            else min((k + 1) * window_s, m.horizon_s)
        )
        span = hi - lo

        def inside(t: float) -> bool:
            return lo <= t < hi or (last and t == hi)

        def inside_mask(t: np.ndarray) -> np.ndarray:
            mask = (t >= lo) & (t < hi)
            if last:
                mask |= t == hi
            return mask

        busy = wake = sleep = joules = 0.0
        re_sleeps = 0
        node_idx, starts, ends = m.busy_windows
        for j, n in enumerate(m.nodes):
            mine = node_idx == j
            b = _overlap_columns(starts[mine], ends[mine], lo, hi)
            w = _overlap(n.wake_spans, lo, hi)
            s = _overlap(n.sleep_spans, lo, hi)
            busy += b
            wake += w
            sleep += s
            awake = span - s
            joules += (
                n.sleep_wall_w * s
                + n.idle_wall_w * (awake - b)
                + n.busy_wall_w * b
            )
            re_sleeps += sum(
                1 for start, _ in n.sleep_spans
                if start > 0.0 and inside(start)
            )
        completed = inside_mask(r_completion)
        window_responses = r_values[completed]
        arrivals = int(inside_mask(r_arrival).sum()) + sum(
            1 for q in m.shed if inside(q.arrival_s)
        )
        out.append(PhaseWindow(
            start_s=lo,
            end_s=hi,
            arrivals=arrivals,
            served=int(completed.sum()),
            modeled_joules=joules,
            awake_node_s=len(m.nodes) * span - sleep,
            busy_node_s=busy,
            wake_node_s=wake,
            sleep_node_s=sleep,
            re_sleeps=re_sleeps,
            p95_response_s=(
                float(np.percentile(window_responses, 95.0))
                if window_responses.size else 0.0
            ),
        ))
    return out
