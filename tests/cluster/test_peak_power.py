"""The blocked peak-power sweep against the single-lexsort sweep it
replaced (``power_oracle.py``), by ``float.hex``.

``ClusterSimulator._peak_model_power_w`` walks the schedule table in
``SCHEDULE_CHUNK``-row blocks, summing the power steps that fall before
each block's cut and carrying the rest.  With the block size cut to a
few rows, every drawn table crosses several blocks: rows in arrival
order and node-major, windows that tie exactly on a cut or have zero
length, ends drawn anywhere (even before their start, or NaN), wake
and sleep steps, and per-node envelopes that differ.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from power_oracle import StandInNode, blocked_sweep, peak_model_power_w
from repro.cluster import ClusterSimulator, RoundRobinRouter, uniform_fleet
from repro.cluster.playback import ScheduleTable
from repro.core.fleet import ServerSpec
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload


@st.composite
def fleets(draw):
    """Nodes with their own envelopes and logs, and a table whose
    times come from a small pool (so starts, ends and steps tie) or
    anywhere."""
    pool = draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=5))
    times = st.one_of(st.sampled_from(pool), st.floats(0.0, 20.0))
    n_nodes = draw(st.integers(1, 5))
    nodes = []
    for j in range(n_nodes):
        idle = draw(st.floats(1.0, 300.0))
        busy = idle + draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0)))
        awake = draw(st.booleans())
        node = StandInNode(
            ServerSpec(f"n{j}", idle, busy, draw(st.floats(0.0, 10.0))),
            started_awake=awake,
            sleep_log=[] if awake else [(0.0, None)],
        )
        for at in sorted(draw(st.lists(times, max_size=4))):
            node.wake_log.append((at, at + 1.0))
            node.sleep_log.append((at + 2.0, None))
        nodes.append(node)
    lengths = st.one_of(st.just(0.0), st.floats(0.0, 5.0),
                        st.sampled_from(pool))
    ends = st.one_of(
        lengths.map(lambda length: (True, length)),
        times.map(lambda at: (False, at)),
        *([st.just((False, math.nan))] if draw(st.booleans()) else []),
    )
    n_rows = draw(st.integers(0, 40))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1), times, ends),
        min_size=n_rows, max_size=n_rows,
    ))
    order = draw(st.sampled_from(["arrival", "node-major", "drawn"]))
    if order == "arrival":  # start order, as a vectorized run writes
        rows.sort(key=lambda r: r[1])
    elif order == "node-major":  # as a loop run writes it
        rows.sort(key=lambda r: r[0])
    start = np.array([r[1] for r in rows], dtype=np.float64)
    end = np.array([
        s + value if extends else value
        for s, (extends, value) in zip(start.tolist(), (r[2] for r in rows))
    ], dtype=np.float64)
    node_idx = np.array([r[0] for r in rows], dtype=np.int64)
    table = ScheduleTable(
        node_idx=node_idx,
        trace_idx=np.zeros(n_rows, dtype=np.int64),
        start_s=start, end_s=end,
        query_idx=np.zeros(0, dtype=np.int64),
        # A loop run's node-major table carries its node offsets, and
        # the sweep visits its rows in start order.
        offsets=np.cumsum([0, *np.bincount(node_idx, minlength=n_nodes)])
        if order == "node-major" else None,
    )
    return nodes, table


@settings(max_examples=200, derandomize=True, database=None,
          deadline=None)
@given(run=fleets(), chunk=st.sampled_from([1, 2, 3, 7]))
def test_blocked_sweep_matches_the_single_sort(monkeypatch, run, chunk):
    nodes, table = run
    monkeypatch.setattr(ClusterSimulator, "SCHEDULE_CHUNK", chunk)
    assert float(blocked_sweep(nodes, table)).hex() == float(
        peak_model_power_w(nodes, table)
    ).hex()


def test_cut_ties_and_carried_steps(monkeypatch):
    """A start tied to the next block's cut waits for it; a wake step
    after every window is carried to the last block."""
    node = StandInNode(
        ServerSpec("n0", 10.0, 30.0, 1.0), started_awake=False,
        sleep_log=[(0.0, None)], wake_log=[(9.0, 10.0)],
    )
    table = ScheduleTable(
        node_idx=np.zeros(4, dtype=np.int64),
        trace_idx=np.zeros(4, dtype=np.int64),
        start_s=np.array([0.0, 2.0, 2.0, 3.0]),
        end_s=np.array([2.0, 2.0, 3.0, 5.0]),
        query_idx=np.zeros(0, dtype=np.int64),
    )
    want = peak_model_power_w([node], table)
    assert want == 1.0 + 20.0
    for chunk in (1, 2, 3, 4):
        monkeypatch.setattr(ClusterSimulator, "SCHEDULE_CHUNK", chunk)
        assert float(blocked_sweep([node], table)).hex() == want.hex()


def test_both_engines_match_the_oracle_across_blocks(mysql_db,
                                                     monkeypatch):
    queries = selection_workload(12).queries
    stream = poisson_arrivals(
        [queries[i % 12] for i in range(20000)], 0.002, seed=3
    )
    monkeypatch.setattr(ClusterSimulator, "SCHEDULE_CHUNK", 4096)
    peaks = {}
    for vectorized in (True, False):
        sim = ClusterSimulator(mysql_db, uniform_fleet(8),
                               RoundRobinRouter())
        schedule = sim.schedule(stream, vectorized=vectorized)
        assert len(schedule.windows.start_s) == 20000
        assert float(schedule.peak_power_w).hex() == float(
            peak_model_power_w(sim.nodes, schedule.windows)
        ).hex()
        peaks[schedule.engine] = schedule.peak_power_w
    assert peaks["vectorized"] == peaks["loop"]


def test_a_loop_table_block_carries_a_bounded_tail(mysql_db, monkeypatch):
    """On a node-major loop table, each block sorts its own two steps
    per row plus the few windows still open at its cut -- not every
    step of the nodes the table has not reached yet."""
    queries = selection_workload(12).queries
    stream = poisson_arrivals(
        [queries[i % 12] for i in range(20000)], 0.002, seed=3
    )
    chunk = 4096
    monkeypatch.setattr(ClusterSimulator, "SCHEDULE_CHUNK", chunk)
    sim = ClusterSimulator(mysql_db, uniform_fleet(8), RoundRobinRouter())
    schedule = sim.schedule(stream, vectorized=False)
    assert schedule.windows.offsets is not None
    sorted_sizes = []
    lexsort = np.lexsort

    def recording(keys):
        sorted_sizes.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", recording)
    peak = sim._peak_model_power_w(schedule.windows)
    monkeypatch.undo()
    assert float(peak).hex() == float(schedule.peak_power_w).hex()
    assert len(sorted_sizes) == -(-20000 // chunk)
    assert max(sorted_sizes) < 3 * chunk
