"""The two full-length measurement passes run in bounded memory.

Over a synthetic 400k-row table of the ``fleet_vectorized`` shape
(Poisson arrivals every 10 ms, round-robin over 100 nodes, ~0.28 s
windows), the peak-power sweep and ``window_report(30)`` each allocate
at most about a third of what their single full-length forms did: the
sweep sorts one ``SCHEDULE_CHUNK`` block of power steps at a time, and
the report's span overlaps clip nothing already inside the horizon and
work in place.  The full-length forms peaked at +30.5 MiB (sweep) and
+30.7 MiB (report) on this shape; the bounds sit about 30% above the
blocked forms' +10.5 and +9.4 MiB.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from power_oracle import StandInNode, blocked_sweep
from repro.cluster.measure import (
    ClusterMeasurement,
    NodeUsage,
    ResponseColumns,
    zero_measurement,
)
from repro.cluster.playback import ScheduleTable
from repro.core.fleet import ServerSpec

ROWS, NODES, MIB = 400_000, 100, 2 ** 20
SWEEP_BOUND_MIB = 13.5
REPORT_BOUND_MIB = 12.0


@pytest.fixture(scope="module")
def run():
    rng = np.random.default_rng(0)
    arrival = np.cumsum(rng.exponential(0.01, ROWS))
    node_idx = np.arange(ROWS, dtype=np.int64) % NODES
    end = arrival + 0.27 + 0.01 * rng.random(ROWS)
    table = ScheduleTable(
        node_idx=node_idx, trace_idx=np.zeros(ROWS, dtype=np.int64),
        start_s=arrival, end_s=end,
        query_idx=None,
    )
    horizon = float(end.max())
    nodes = [
        NodeUsage(
            name=f"node{j:02d}", queries=ROWS // NODES, busy_s=0.0,
            wake_s=0.0, sleep_s=0.0, horizon_s=horizon,
            playback=zero_measurement(), sleep_joules=0.0,
            idle_wall_w=80.0, busy_wall_w=110.0, sleep_wall_w=3.5,
        )
        for j in range(NODES)
    ]
    measurement = ClusterMeasurement(
        horizon_s=horizon, nodes=nodes,
        response_columns=ResponseColumns(
            ("q",), tuple(n.name for n in nodes),
            np.zeros(ROWS, dtype=np.int64), node_idx, arrival, arrival, end,
            None,
        ),
        busy_windows=(node_idx, arrival, end),
    )
    measurement.p95_response_s  # the run's printed percentiles come first
    return table, measurement


def _peak_mib(call) -> float:
    """Bytes ``call`` allocated at its peak, above what it started at."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / MIB
    finally:
        tracemalloc.stop()


def test_peak_sweep_holds_one_block(run):
    table, _ = run
    nodes = [StandInNode(ServerSpec(f"n{j}", 80.0, 110.0))
             for j in range(NODES)]
    assert _peak_mib(lambda: blocked_sweep(nodes, table)) < SWEEP_BOUND_MIB


def test_window_report_overlaps_in_place(run):
    _, measurement = run
    report = []
    assert _peak_mib(
        lambda: report.extend(measurement.window_report(30.0))
    ) < REPORT_BOUND_MIB
    assert len(report) == int(np.ceil(measurement.horizon_s / 30.0))
    assert sum(w.served for w in report) == ROWS
