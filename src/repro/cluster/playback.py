"""Fleet playback: the schedule table, and what its windows cost.

Both engines write one :class:`ScheduleTable`, a row per busy window.
A vectorized run never sleeps, wakes, retunes or stretches a node, so
:func:`play_table` costs it by counting windows against the pre-costed
measurements, in O(nodes x distinct).  A loop run's table also carries
each window's setting and straggler stretch; :func:`loop_timeline`
derives from it and the node logs every node's awake timeline as rows
(busy windows, and the idle, wake and straggler gaps between and after
them), and :func:`play_timeline` plays those rows: one gather from the
schedule's traces builds every stacked trace, and nodes sharing a
``(hardware profile, PVC setting)`` pair are *playback equivalent*, so
their *setting runs* (maximal stretches of rows played under one
setting) stack into one structure-of-arrays call per distinct pair --
``O(nodes + setting changes)`` traces, not ``O(pieces)``, and no
compiled trace per gap.

The piece-by-piece timeline and its players (one ``run_compiled`` call
per piece; one batched call over per-gap idle pieces) are the test
oracles, ``tests/cluster/loop_playback.py``: the rows equal the pieces,
and all agree on every node's energy to float-summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.measure import ResponseColumns, zero_measurement
from repro.hardware.cpu import PvcSetting
from repro.hardware.disk import DiskEnergy
from repro.hardware.system import RunMeasurement, SystemUnderTest
from repro.hardware.trace import CompiledTrace, Idle, Trace
from repro.workloads.arrivals import ArrivalStream

#: Functions below accept any node-shaped object exposing ``spec`` and
#: ``sut`` -- live :class:`SimulatedNode`\ s during scheduling, frozen
#: :class:`~repro.cluster.simulator.NodeTimeline` snapshots during
#: playback.


@dataclass(frozen=True)
class ScheduleTable:
    """Every busy window of a schedule, one row each, on either engine.

    ``trace_idx`` indexes the schedule's trace table (the distinct
    statements first, then interned merged and re-replication traces).
    Each node's rows are in the order it ran them: a vectorized run's
    table is in arrival order, a loop run's node-major (``offsets``).
    The served queries are ``query_idx``, their indices in the
    time-ordered arrival stream, ascending -- None when every arrival
    was served -- each answered by window ``query_window`` -- None (a
    vectorized run) when row ``k`` answers served query ``k``.  A loop
    run's rows also carry ``setting_idx`` (into ``settings``) and
    ``stretch_s``, what its timeline is built from.
    """

    node_idx: np.ndarray
    trace_idx: np.ndarray
    start_s: np.ndarray
    end_s: np.ndarray
    query_idx: np.ndarray | None
    offsets: np.ndarray | None = None
    query_window: np.ndarray | None = None
    setting_idx: np.ndarray | None = None
    stretch_s: np.ndarray | None = None
    settings: tuple[PvcSetting, ...] = ()

    def __len__(self) -> int:
        return len(self.start_s)

    def busy_s(self, n_nodes: int) -> np.ndarray:
        """Each node's busy seconds, summed in the order it ran them."""
        return np.bincount(self.node_idx, weights=self.end_s - self.start_s,
                           minlength=n_nodes)

    def trace_counts(self, n_nodes: int, n_traces: int) -> np.ndarray:
        """How many windows ran each trace on each node."""
        return np.bincount(self.node_idx * n_traces + self.trace_idx,
                           minlength=n_nodes * n_traces,
                           ).reshape(n_nodes, n_traces)

    def response_columns(self, arrivals: ArrivalStream,
                         node_names: Sequence[str]) -> ResponseColumns:
        """The served queries, in stream order: statement and arrival
        time read off the stream ``arrivals`` the run worked on, node,
        start and completion off the windows that answered them (no
        column is copied where every arrival or window answers)."""
        served, window = self.query_idx, self.query_window

        def per_query(column, rows):
            return column if rows is None else column[rows]

        return ResponseColumns(
            arrivals.distinct, tuple(node_names),
            per_query(arrivals.sql_idx, served),
            per_query(self.node_idx, window),
            per_query(arrivals.times, served),
            per_query(self.start_s, window),
            per_query(self.end_s, window),
            served,
        )


def window_table(
    nodes: list, table: dict[str, CompiledTrace],
) -> ScheduleTable:
    """The loop engine's schedule table, built once its run is over.

    Node-major: each node's windows in the order it ran them; the
    queries they answer in stream order.  Each row also
    carries the setting its window was stamped with (``setting_idx``
    into ``settings``; an unstamped window plays under its node's spec
    setting) and its straggler ``stretch_s``.
    """
    code = {key: i for i, key in enumerate(table)}
    works = [work for node in nodes for work in node.scheduled]
    index: dict[PvcSetting, int] = {}
    setting_idx = []
    last = None
    for node in nodes:
        for work in node.scheduled:
            # Consecutive windows mostly share one setting object: hash
            # (a dataclass and an enum) only when it changes.
            setting = work.setting or node.spec.setting
            if setting is not last:
                last, at = setting, index.setdefault(setting, len(index))
            setting_idx.append(at)
    answered = np.array([q for work in works for q in work.queries],
                        dtype=np.int64)
    order = np.argsort(answered)
    per_node = [len(node.scheduled) for node in nodes]
    return ScheduleTable(
        node_idx=np.repeat(np.arange(len(nodes)), per_node),
        trace_idx=np.array([code[w.trace_key] for w in works],
                           dtype=np.int64),
        start_s=np.array([w.start_s for w in works], dtype=np.float64),
        end_s=np.array([w.end_s for w in works], dtype=np.float64),
        query_idx=answered[order],
        offsets=np.cumsum([0, *per_node]),
        query_window=np.repeat(
            np.arange(len(works)), [len(w.queries) for w in works]
        )[order],
        setting_idx=np.array(setting_idx, dtype=np.int64),
        stretch_s=np.array([w.stretch_s for w in works], dtype=np.float64),
        settings=tuple(index),
    )


#: Label codes of a timeline's idle rows (a busy row's code is -1).
IDLE_LABELS = ("idle", "wake", "straggler")
IDLE, WAKE, STRAGGLER = range(3)

#: Event kinds of the timeline walk, in their tie order: at one
#: ``(start, end)`` a sleep span sorts before a wake, a wake before a
#: busy window.
_SLEEP, _WAKE, _BUSY = range(3)


@dataclass(frozen=True)
class LoopTimeline:
    """A loop run's awake timelines, one row per played piece.

    Node ``j``'s rows are ``offsets[j]:offsets[j + 1]``, in the order
    they play.  A busy row names its trace code in ``trace_idx``; an
    idle row (an awake gap, a wake transition or straggler inflation,
    by its ``label`` code into :data:`IDLE_LABELS`) has trace code -1
    and plays ``idle_s`` seconds at awake-idle watts.  Every row plays
    under ``settings[setting_idx]``.  Sleep spans have no rows: they
    are billed at ``sleep_wall_w`` outside the hardware model.
    """

    offsets: np.ndarray
    trace_idx: np.ndarray
    idle_s: np.ndarray
    label: np.ndarray
    setting_idx: np.ndarray
    settings: tuple[PvcSetting, ...]

    def __len__(self) -> int:
        return len(self.trace_idx)


def loop_timeline(
    nodes: list, windows: ScheduleTable, horizon_s: float,
) -> LoopTimeline:
    """Every node's awake timeline, from the table and the node logs.

    A node's sleep spans, wake transitions and busy windows are sorted
    stably on ``(start, end)``; a cursor -- the running max of the
    ends -- tracks how far the node is accounted.  A gap of more than
    1e-12 s between the cursor and an event's start is idle, as is the
    part of a wake transition past the cursor and a window's straggler
    stretch; the tail to ``horizon_s`` closes the timeline.  A busy row
    plays under the setting its window was stamped with, an idle row
    under the setting the node's retune log shows it held at the
    row's start (a gap containing a retune is attributed wholly to its
    entry setting).  A node asleep at the horizon ends on a clamped
    sleep span, so the tail needs no awake test.
    """
    index = {setting: i for i, setting in enumerate(windows.settings)}
    parts = []
    for j, node in enumerate(nodes):
        lo, hi = int(windows.offsets[j]), int(windows.offsets[j + 1])
        spans = list(node.sleep_spans(horizon_s)) + list(node.wake_log)
        n = len(spans) + hi - lo
        start = np.empty(n)
        end = np.empty(n)
        if spans:
            start[:len(spans)], end[:len(spans)] = zip(*spans)
        start[len(spans):] = windows.start_s[lo:hi]
        end[len(spans):] = windows.end_s[lo:hi]
        kind = np.repeat(
            [_SLEEP, _WAKE, _BUSY],
            [len(spans) - len(node.wake_log), len(node.wake_log), hi - lo],
        )
        order = np.lexsort((np.arange(n), end, start))
        start, end, kind = start[order], end[order], kind[order]
        row = order - len(spans) + lo
        # cursor[i]: how far the node is accounted before event i, the
        # running max of the ends; the tail is one more gap, from
        # cursor[n] to the horizon.
        cursor = np.empty(n + 1)
        cursor[0] = 0.0
        np.maximum(start, end, out=cursor[1:])
        np.maximum.accumulate(cursor, out=cursor)
        gap = np.append(start, horizon_s) - cursor
        entry = np.maximum(cursor[:-1], start)
        span = end - entry

        log = node.setting_log or ((0.0, node.spec.setting),)
        stamps = np.array([stamp for stamp, _ in log])
        held = np.array([
            index.setdefault(setting, len(index)) for _, setting in log
        ], dtype=np.int64)

        def setting_at(t: np.ndarray) -> np.ndarray:
            at = np.searchsorted(stamps, t + 1e-12, side="right") - 1
            return held[np.maximum(at, 0)]

        idle_at = np.flatnonzero(gap > 1e-12)
        wake_at = np.flatnonzero((kind == _WAKE) & (span > 1e-12))
        busy_at = np.flatnonzero(kind == _BUSY)
        busy_rows = row[busy_at]
        stretched = windows.stretch_s[busy_rows] > 1e-12
        strag_at, strag_rows = busy_at[stretched], busy_rows[stretched]
        # Each event plays its leading gap, then its wake or window,
        # then the window's stretch: rows sort on 3 * event + slot.
        # Columns: sort key, trace code, idle seconds, label, setting.
        by_kind = (
            (3 * idle_at, -1, gap[idle_at], IDLE,
             setting_at(cursor[idle_at])),
            (3 * wake_at + 1, -1, span[wake_at], WAKE,
             setting_at(entry[wake_at])),
            (3 * busy_at + 1, windows.trace_idx[busy_rows], 0.0, -1,
             windows.setting_idx[busy_rows]),
            (3 * strag_at + 2, -1, windows.stretch_s[strag_rows],
             STRAGGLER, windows.setting_idx[strag_rows]),
        )
        pick = np.argsort(np.concatenate([k[0] for k in by_kind]))
        parts.append([
            np.concatenate([
                np.broadcast_to(k[c], k[0].shape) for k in by_kind
            ])[pick]
            for c in range(1, 5)
        ])
    trace_idx, idle_s, label, setting_idx = (
        np.concatenate([part[c] for part in parts]) for c in range(4)
    )
    return LoopTimeline(
        offsets=np.cumsum([0, *(len(part[0]) for part in parts)]),
        trace_idx=trace_idx, idle_s=idle_s,
        label=label.astype(np.int8), setting_idx=setting_idx,
        settings=tuple(index),
    )


#: One second of idle, compiled once.  It closes :func:`play_timeline`'s
#: row library, where each idle row's gather overwrites its seconds.
#: Played under a (hw, setting) pair it yields that pair's idle draw in
#: watts, and idle energy is strictly linear in idle seconds (constant
#: powers per idle segment), so a vectorized run's idle time costs one
#: multiply.
_IDLE_SECOND = Trace([Idle(1.0, label="idle")]).compiled()

#: The :class:`CompiledTrace` arrays a gather copies (labels aside).
_COLUMNS = ("kinds", "cycles", "utilization", "num_ops", "bytes_total",
            "sequential", "write", "seconds")


def play_timeline(
    nodes: list,
    traces: list[CompiledTrace],
    timeline: LoopTimeline,
    workload_class: str,
    machine: Callable[[tuple], SystemUnderTest],
) -> list[RunMeasurement]:
    """One stacked playback call per distinct (hw, setting) pair, on
    that pair's machine (``machine``).

    The schedule's traces and one idle second concatenate into a row
    library; every node's timeline is one fancy-index gather from it,
    with each idle row's seconds scattered in.  A node's *setting
    runs* (maximal stretches of rows played under one setting) are
    views of that gather; every equivalent run across the fleet joins
    one :meth:`~repro.hardware.system.SystemUnderTest.run_compiled_batch`
    call, whose per-trace slice sums come back as per-node measurements
    (summed across a node's runs when it was retuned mid-flight).
    """
    library = CompiledTrace.concat([*traces, _IDLE_SECOND])
    lengths = np.array([len(t) for t in traces] + [1], dtype=np.int64)
    firsts = np.cumsum(lengths) - lengths
    # An idle row's trace code, -1, names the idle second: the last trace.
    code = timeline.trace_idx
    counts = lengths[code]
    edges = np.zeros(len(code) + 1, dtype=np.int64)
    np.cumsum(counts, out=edges[1:])
    segment = np.repeat(firsts[code] - edges[:-1], counts) + np.arange(
        edges[-1]
    )
    gathered = {name: getattr(library, name)[segment] for name in _COLUMNS}
    labels = np.array(library.labels, dtype=object)[segment]
    idle = np.flatnonzero(code < 0)
    gathered["seconds"][edges[idle]] = timeline.idle_s[idle]
    labels[edges[idle]] = np.array(IDLE_LABELS, dtype=object)[
        timeline.label[idle]
    ]

    # Runs break at every node boundary and every setting change.
    setting_idx = timeline.setting_idx
    breaks = np.union1d(
        timeline.offsets,
        np.flatnonzero(setting_idx[1:] != setting_idx[:-1]) + 1,
    )
    run_node = np.searchsorted(
        timeline.offsets, breaks[:-1], side="right"
    ) - 1

    out = [zero_measurement() for _ in nodes]
    buckets: dict[tuple, list[tuple[int, CompiledTrace]]] = {}
    for lo, hi, j in zip(breaks[:-1].tolist(), breaks[1:].tolist(),
                         run_node.tolist()):
        node = nodes[j]
        a, b = edges[lo], edges[hi]
        key = (node.spec.hw, timeline.settings[setting_idx[lo]])
        buckets.setdefault(key, []).append((j, CompiledTrace(
            **{name: column[a:b] for name, column in gathered.items()},
            labels=tuple(labels[a:b].tolist()),
        )))
    for key, entries in buckets.items():
        measurements = machine(key).run_compiled_batch(
            [trace for _, trace in entries], workload_class
        )
        for (j, _), measurement in zip(entries, measurements):
            out[j] = out[j] + measurement
    return out


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
    """Cost a vectorized run's table by counting.

    ``measured`` maps each ``(hw, setting)`` pair to the schedule
    phase's measurement of every trace, in code order.  Every node
    holds its spec setting throughout, so busy energy is its windows'
    counts per trace times those measurements, and idle energy the
    per-second idle draw of its machine (the pair's) times whatever of
    the horizon the windows leave (idle playback is linear in seconds).
    """
    counts = table.trace_counts(len(nodes), n_traces)
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
            per_second = node.sut.run_compiled(_IDLE_SECOND, workload_class)
            rate = idle_rates[key] = _measurement_fields([per_second])[:, 0]
        busy = F @ counts[j].astype(np.float64)
        idle_s = max(0.0, horizon_s - busy[0])
        out.append(_measurement_from_fields(busy + rate * idle_s))
    return out
