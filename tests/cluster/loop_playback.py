"""Piece-by-piece playback of loop schedules (test oracles).

``node_timeline_pieces`` rebuilds a node's awake timeline from its logs
as one compiled-trace piece per busy window, gap, wake transition and
straggler stretch -- one ``Trace([Idle])`` per idle piece -- with the
setting each piece plays under.  Two players replay those pieces:
``play_loop``, one ``run_compiled`` call per piece, and ``play_batched``,
one stacked ``run_compiled_batch`` call per distinct (hw, setting) pair
over each node's same-setting runs.  ``repro.cluster.playback`` builds
the same timeline as rows (``loop_timeline``) and plays it by one
gather (``play_timeline``): its rows must equal the pieces, and its
measurements ``play_batched``'s bit for bit.  :func:`loop_playback` is
``sim.playback(schedule)`` with each node's ``RunMeasurement`` swapped
for the loop's, so the identity tests compare two whole
:class:`~repro.cluster.measure.ClusterMeasurement` records.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.measure import ClusterMeasurement, zero_measurement
from repro.cluster.node import SimulatedNode, TimelineAccounting
from repro.cluster.simulator import ClusterSchedule, ClusterSimulator
from repro.hardware.cpu import PvcSetting
from repro.hardware.system import RunMeasurement
from repro.hardware.trace import CompiledTrace, Idle, Trace


def node_timeline_pieces(
    node: TimelineAccounting,
    table: dict[str, CompiledTrace],
    horizon_s: float,
) -> tuple[list[CompiledTrace], list[PvcSetting]]:
    """A node's awake timeline as compiled-trace pieces + their settings.

    Busy windows resolve through ``table`` under the setting stamped at
    assign time; the gaps between them (and wake transitions) become
    ``Idle`` segments so playback charges awake-idle power, under the
    setting the node's retune log shows it held entering the gap (a
    gap containing a retune is attributed wholly to its entry setting).
    Sleep spans are *not* represented -- they are billed at
    ``sleep_wall_w`` outside the hardware model.  A node asleep at the
    horizon ends on a clamped sleep span, so the trailing idle piece
    needs no awake test: a crash logged past the horizon (a retry ran
    the tail past it, then dead-lettered) must not drop it.
    """
    log = list(getattr(node, "setting_log", ())) or [
        (0.0, node.spec.setting)
    ]

    def setting_at(t: float) -> PvcSetting:
        current = log[0][1]
        for stamp, setting in log:
            if stamp > t + 1e-12:
                break
            current = setting
        return current

    events: list[tuple[float, float, str, object]] = []
    for start, end in node.sleep_spans(horizon_s):
        events.append((start, end, "sleep", None))
    for called, ready in node.wake_log:
        events.append((called, ready, "wake", None))
    for work in node.scheduled:
        events.append((work.start_s, work.end_s, "busy", work))
    events.sort(key=lambda e: (e[0], e[1]))

    pieces: list[CompiledTrace] = []
    settings: list[PvcSetting] = []
    cursor = 0.0
    for start, end, kind, payload in events:
        if start - cursor > 1e-12:
            pieces.append(idle_piece(start - cursor, "idle"))
            settings.append(setting_at(cursor))
        cursor = max(cursor, start)
        if kind == "sleep":
            cursor = max(cursor, end)
            continue
        span = end - cursor
        if kind == "wake":
            if span > 1e-12:
                pieces.append(idle_piece(span, "wake"))
                settings.append(setting_at(cursor))
        else:
            work = payload
            pieces.append(table[work.trace_key])
            settings.append(work.setting or node.spec.setting)
            if work.stretch_s > 1e-12:
                # Straggler inflation: degraded occupancy past the
                # costed trace, billed at awake-idle watts.
                pieces.append(idle_piece(work.stretch_s, "straggler"))
                settings.append(work.setting or node.spec.setting)
        cursor = max(cursor, end)
    if horizon_s - cursor > 1e-12:
        pieces.append(idle_piece(horizon_s - cursor, "idle"))
        settings.append(setting_at(cursor))
    return pieces, settings


def idle_piece(seconds: float, label: str) -> CompiledTrace:
    return Trace([Idle(seconds, label=label)]).compiled()


def timeline_pieces(
    schedule: ClusterSchedule,
) -> tuple[dict[str, list[CompiledTrace]], dict[str, list[PvcSetting]]]:
    """Every node's pieces and settings, by node name."""
    pieces_by_node, settings_by_node = {}, {}
    for node in schedule.nodes:
        pieces, settings = node_timeline_pieces(
            node, schedule.table, schedule.horizon_s
        )
        pieces_by_node[node.spec.name] = pieces
        settings_by_node[node.spec.name] = settings
    return pieces_by_node, settings_by_node


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
    ``run_compiled_batch`` call, whose per-trace slice sums come back
    as per-node measurements (summed across a node's runs when it was
    retuned mid-flight).
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


def play_loop(
    nodes: list[SimulatedNode],
    pieces_by_node: dict[str, list[CompiledTrace]],
    workload_class: str,
    settings_by_node: dict[str, list[PvcSetting]] | None = None,
) -> dict[str, RunMeasurement]:
    """The per-query replay loop: one playback call per scheduled piece.

    This is the naive path batched playback replaces -- kept as the
    oracle for the conservation tests.
    """
    out: dict[str, RunMeasurement] = {}
    for node in nodes:
        pieces = pieces_by_node[node.spec.name]
        settings = _node_settings(node, pieces, settings_by_node)
        total = zero_measurement()
        original = node.sut.setting
        try:
            for piece, setting in zip(pieces, settings):
                if node.sut.setting != setting:
                    node.sut.apply_setting(setting)
                total = total + node.sut.run_compiled(piece, workload_class)
        finally:
            node.sut.apply_setting(original)
        out[node.spec.name] = total
    return out


def loop_playback(sim: ClusterSimulator,
                  schedule: ClusterSchedule) -> ClusterMeasurement:
    """``sim.playback(schedule)`` with node energies from :func:`play_loop`.

    Needs a loop-engine schedule (``schedule(..., vectorized=False)``
    or an ineligible configuration): a vectorized schedule has no
    per-piece timeline to replay.
    """
    assert schedule.engine == "loop", "loop playback needs the loop engine"
    measured = sim.playback(schedule)
    pieces_by_node, settings_by_node = timeline_pieces(schedule)
    loop = play_loop(schedule.nodes, pieces_by_node,
                     schedule.workload_class, settings_by_node)
    return replace(measured, nodes=[
        replace(usage, playback=loop[usage.name])
        for usage in measured.nodes
    ])
