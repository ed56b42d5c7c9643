"""Fleet playback: the nodes' timelines as stacked array operations.

This generalizes :meth:`SystemUnderTest.run_compiled_batch` to a whole
heterogeneous fleet.  Nodes sharing a ``(hardware profile, PVC
setting)`` pair are *playback equivalent* (the simulator builds every
node's machine from its profile's factory), so their timelines stack
into a single structure-of-arrays playback call per distinct pair -- a
16-node x 10k-arrival run collapses to a handful of vectorized passes.

Nodes retuned online (the adaptive-PVC policy) contribute one stacked
trace per *setting run* -- a maximal stretch of consecutive pieces
played under one setting -- so the number of playback calls stays
``O(distinct (hw, setting) pairs)`` and the number of stacked traces
stays ``O(nodes + setting changes)``, not ``O(pieces)``.

The per-query replay loop (one ``run_compiled`` call per scheduled
piece) is the test oracle, ``tests/cluster/loop_playback.py``; both
agree on every node's energy to float-summation order.
"""

from __future__ import annotations

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


def playback_groups(
    nodes: list[SimulatedNode],
) -> list[list[SimulatedNode]]:
    """Partition nodes into playback-equivalent groups: same hardware
    profile, same (spec) PVC setting."""
    groups: dict[object, list[SimulatedNode]] = {}
    for node in nodes:
        groups.setdefault((node.spec.hw, node.spec.setting), []).append(node)
    return list(groups.values())


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
#: so every idle gap in a columnar schedule costs one multiply.
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


def play_columnar(
    nodes: list[SimulatedNode],
    columnar,
    horizon_s: float,
    workload_class: str,
) -> dict[str, RunMeasurement]:
    """Play a vectorized (columnar) schedule without materializing pieces.

    A columnar schedule never retunes or sleeps a node, so each node's
    timeline is fully described by *how many times* it played each
    distinct trace plus its total idle seconds.  Busy energy is a
    counts x per-distinct-measurement dot product over the schedule
    phase's pre-costed batch (the same ``run_compiled_batch`` output
    the legacy path replays piece by piece); idle energy is the pair's
    per-second idle draw times the idle gap total (idle playback is
    linear in seconds).  Cost: O(nodes x distinct), independent of the
    arrival count.
    """
    out: dict[str, RunMeasurement] = {}
    n_distinct = len(columnar.distinct)
    fields: dict[object, np.ndarray] = {}
    idle_rates: dict[object, np.ndarray] = {}
    for j, node in enumerate(nodes):
        key = (node.spec.hw, node.spec.setting)
        F = fields.get(key)
        if F is None:
            F = fields[key] = _measurement_fields(columnar.costed[key])
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
        rows = columnar.rows_for(j)
        counts = np.bincount(
            columnar.sql_idx[rows], minlength=n_distinct
        ).astype(np.float64)
        busy = F @ counts
        idle_s = max(0.0, horizon_s - busy[0])
        out[node.spec.name] = _measurement_from_fields(
            busy + rate * idle_s
        )
    return out

