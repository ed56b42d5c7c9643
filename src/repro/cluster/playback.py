"""Fleet playback: the schedule table, and what its windows cost.

Both engines write one :class:`ScheduleTable`, a row per busy window.
A vectorized run never sleeps, wakes, retunes or stretches a node, so
:func:`play_table` costs it by counting windows against the pre-costed
measurements, in O(nodes x distinct).  A loop run plays each node's
timeline pieces with :func:`play_batched`: nodes sharing a ``(hardware
profile, PVC setting)`` pair are *playback equivalent*, so their
timelines stack into one structure-of-arrays call per distinct pair,
one stacked trace per *setting run* (a maximal stretch of pieces played
under one setting) -- ``O(nodes + setting changes)`` traces, not
``O(pieces)``.

The per-query replay loop (one ``run_compiled`` call per piece) is the
test oracle, ``tests/cluster/loop_playback.py``; all agree on every
node's energy to float-summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.measure import zero_measurement
from repro.cluster.node import SimulatedNode
from repro.hardware.cpu import PvcSetting
from repro.hardware.disk import DiskEnergy
from repro.hardware.system import RunMeasurement
from repro.hardware.trace import CompiledTrace, Idle, Trace

#: Functions below accept any node-shaped object exposing ``spec`` and
#: ``sut`` -- live :class:`SimulatedNode`\ s during scheduling, frozen
#: :class:`~repro.cluster.simulator.NodeTimeline` snapshots during
#: playback.


@dataclass(frozen=True)
class ScheduleTable:
    """Every busy window of a schedule, one row each, on either engine.

    ``trace_idx`` indexes the schedule's trace table (the distinct
    statements first, then interned merged and re-replication traces).
    ``offsets`` delimit each node's rows, through ``order`` when the
    rows are not node-major.  The served queries are ``query_sql`` (a
    trace code) and ``query_arrival_s``, answered by window
    ``query_window`` -- None (a vectorized run) when row ``i`` answers
    query ``i``.
    """

    node_idx: np.ndarray
    trace_idx: np.ndarray
    start_s: np.ndarray
    end_s: np.ndarray
    offsets: np.ndarray
    query_sql: np.ndarray
    query_arrival_s: np.ndarray
    order: np.ndarray | None = None
    query_window: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.start_s)

    def rows_for(self, j: int):
        """Node ``j``'s rows, in the order they were scheduled."""
        lo, hi = int(self.offsets[j]), int(self.offsets[j + 1])
        return slice(lo, hi) if self.order is None else self.order[lo:hi]

    def query_columns(self, column: np.ndarray) -> np.ndarray:
        """A per-window column read once per served query."""
        return column if self.query_window is None else column[
            self.query_window
        ]


def _node_settings(
    node, pieces: list[CompiledTrace],
    settings_by_node: dict[str, list[PvcSetting]] | None,
) -> list[PvcSetting]:
    """Per-piece settings for one node (spec setting when not given)."""
    if settings_by_node is None:
        return [node.spec.setting] * len(pieces)
    settings = settings_by_node[node.spec.name]
    if len(settings) != len(pieces):
        raise ValueError(
            f"node {node.spec.name!r}: {len(settings)} settings for "
            f"{len(pieces)} pieces"
        )
    return settings


def _setting_runs(
    pieces: list[CompiledTrace], settings: list[PvcSetting],
) -> list[tuple[PvcSetting, list[CompiledTrace]]]:
    """Split a timeline into maximal same-setting runs, in order."""
    runs: list[tuple[PvcSetting, list[CompiledTrace]]] = []
    for piece, setting in zip(pieces, settings):
        if runs and runs[-1][0] == setting:
            runs[-1][1].append(piece)
        else:
            runs.append((setting, [piece]))
    return runs


def play_batched(
    nodes: list[SimulatedNode],
    pieces_by_node: dict[str, list[CompiledTrace]],
    workload_class: str,
    settings_by_node: dict[str, list[PvcSetting]] | None = None,
) -> dict[str, RunMeasurement]:
    """One stacked playback call per distinct (hw, setting) pair.

    Each node's same-setting piece runs concatenate into stacked
    traces; every equivalent run across the fleet joins one
    :meth:`~repro.hardware.system.SystemUnderTest.run_compiled_batch`
    call, whose per-trace slice sums come back as per-node measurements
    (summed across a node's runs when it was retuned mid-flight).
    """
    out: dict[str, RunMeasurement] = {
        node.spec.name: zero_measurement() for node in nodes
    }
    buckets: dict[object, list[tuple[str, CompiledTrace]]] = {}
    sut_for: dict[object, object] = {}
    for node in nodes:
        pieces = pieces_by_node[node.spec.name]
        settings = _node_settings(node, pieces, settings_by_node)
        for setting, run_pieces in _setting_runs(pieces, settings):
            key = (node.spec.hw, setting)
            buckets.setdefault(key, []).append(
                (node.spec.name, CompiledTrace.concat(run_pieces))
            )
            sut_for.setdefault(key, node.sut)
    for key, entries in buckets.items():
        sut = sut_for[key]
        original = sut.setting
        sut.apply_setting(key[1])
        try:
            measurements = sut.run_compiled_batch(
                [trace for _, trace in entries], workload_class
            )
        finally:
            sut.apply_setting(original)
        for (name, _), measurement in zip(entries, measurements):
            out[name] = out[name] + measurement
    return out


#: One second of idle, compiled once: played under a (hw, setting)
#: pair it yields that pair's idle draw in watts, and idle energy is
#: strictly linear in idle seconds (constant powers per idle segment),
#: so a vectorized run's idle time costs one multiply.
_IDLE_SECOND = Trace([Idle(1.0, label="idle")]).compiled()

#: RunMeasurement scalar fields in matrix order (disk energy unrolled
#: onto its two rails so every field scales linearly).
_FIELD_COUNT = 9


def _measurement_fields(ms: list[RunMeasurement]) -> np.ndarray:
    """Stack measurements into a (field, trace) matrix for dot products."""
    return np.array([
        [m.duration_s, m.cpu_joules, m.memory_joules,
         m.disk_energy.joules_5v, m.disk_energy.joules_12v,
         m.board_joules, m.gpu_joules, m.fan_joules, m.wall_joules]
        for m in ms
    ], dtype=np.float64).reshape(len(ms), _FIELD_COUNT).T


def _measurement_from_fields(v: np.ndarray) -> RunMeasurement:
    return RunMeasurement(
        duration_s=float(v[0]), cpu_joules=float(v[1]),
        memory_joules=float(v[2]),
        disk_energy=DiskEnergy(float(v[3]), float(v[4])),
        board_joules=float(v[5]), gpu_joules=float(v[6]),
        fan_joules=float(v[7]), wall_joules=float(v[8]),
    )


def play_table(
    nodes: list,
    table: ScheduleTable,
    n_traces: int,
    measured: dict,
    horizon_s: float,
    workload_class: str,
) -> list[RunMeasurement]:
    """Cost a vectorized run's table by counting, node by node.

    ``measured`` maps each ``(hw, setting)`` pair to the schedule
    phase's measurement of every trace, in code order.  Every node
    holds its spec setting throughout, so busy energy is its windows'
    counts per trace times those measurements, and idle energy the
    pair's per-second idle draw times whatever of the horizon the
    windows leave (idle playback is linear in seconds).
    """
    out: list[RunMeasurement] = []
    fields: dict[object, np.ndarray] = {}
    idle_rates: dict[object, np.ndarray] = {}
    for j, node in enumerate(nodes):
        key = (node.spec.hw, node.spec.setting)
        F = fields.get(key)
        if F is None:
            F = fields[key] = _measurement_fields(measured[key])
        rate = idle_rates.get(key)
        if rate is None:
            sut = node.sut
            original = sut.setting
            sut.apply_setting(node.spec.setting)
            try:
                per_second = sut.run_compiled(
                    _IDLE_SECOND, workload_class
                )
            finally:
                sut.apply_setting(original)
            rate = idle_rates[key] = _measurement_fields([per_second])[:, 0]
        counts = np.bincount(
            table.trace_idx[table.rows_for(j)], minlength=n_traces
        ).astype(np.float64)
        busy = F @ counts
        idle_s = max(0.0, horizon_s - busy[0])
        out.append(_measurement_from_fields(busy + rate * idle_s))
    return out
