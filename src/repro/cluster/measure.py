"""Cluster-level measurement: composed node playback + response times.

A cluster run produces one :class:`~repro.hardware.system.RunMeasurement`
per node (the node's whole awake timeline played back under its PVC
setting) plus the event-level bookkeeping the hardware layer cannot see:
sleep energy, wake transitions, per-query response times, shed queries,
and the fleet's modeled power peak.  :class:`ClusterMeasurement` composes
them into the paper-style aggregate metrics -- total energy, EDP,
per-node utilization, response-time percentiles, SLA violations, and
power-cap overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.hardware.disk import ZERO_DISK_ENERGY
from repro.hardware.system import RunMeasurement


def zero_measurement() -> RunMeasurement:
    """An empty playback (a node that never woke up)."""
    return RunMeasurement(0.0, 0.0, 0.0, ZERO_DISK_ENERGY, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class QueryResponse:
    """One served query's life cycle through the cluster."""

    sql: str
    node: str
    arrival_s: float
    start_s: float
    completion_s: float

    @property
    def response_s(self) -> float:
        """Full sojourn time: arrival to completion (queue wait included)."""
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class ShedQuery:
    """A query the cluster refused to serve: a power-cap rejection, or
    a dead-lettered query whose retries were exhausted.  ``query_idx``
    is its arrival's index in the time-ordered stream the run worked
    on."""

    sql: str
    arrival_s: float
    query_idx: int


@dataclass(frozen=True)
class ScheduledWork:
    """One contiguous busy window on a node.

    A plain query occupies one window; a QED batch occupies one window
    for the whole merged execution.  ``trace_key`` indexes the schedule's
    compiled-trace table; ``queries`` carries the stream indices of the
    arrivals answered when the window completes.  ``setting`` is the PVC
    operating point the node held when the window was placed (None:
    the node's spec setting) -- playback must cost the window under the
    same setting its service time was computed for.  ``stretch_s`` is
    straggler-fault inflation beyond the costed trace duration: the
    window occupies it, but playback bills it as degraded (idle-watt)
    occupancy after the trace piece.
    """

    trace_key: str
    start_s: float
    end_s: float
    queries: tuple[int, ...]
    setting: object | None = None
    stretch_s: float = 0.0

    @property
    def service_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class QedPartitionStats:
    """Batch/merge accounting for one QED partition (or node queue).

    ``queries``/``batches``/``max_batch`` count *dispatches* out of the
    admission queue; the window counters record what the scheduler
    actually placed: ``merged_windows`` disjunctive executions,
    ``singleton_windows`` single-query executions (size-1 batches,
    pass-through queries, and fallback members), and
    ``fallback_batches`` batches the aggregator rejected
    (``NotMergeableError``) that degraded to back-to-back singletons
    instead of crashing the schedule.
    """

    partition: str
    queries: int = 0
    batches: int = 0
    max_batch: int = 0
    merged_windows: int = 0
    singleton_windows: int = 0
    fallback_batches: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0


@dataclass
class QedReport:
    """Fleet-wide QED accounting for one run, per partition.

    ``mode`` is ``"master"`` (one coordinator queue partitioned by
    mergeable template) or ``"node"`` (a private queue per node, keyed
    ``node:<name>``).
    """

    mode: str
    partitions: list[QedPartitionStats] = field(default_factory=list)

    def get(self, partition: str) -> QedPartitionStats | None:
        for stats in self.partitions:
            if stats.partition == partition:
                return stats
        return None

    @property
    def queries(self) -> int:
        return sum(p.queries for p in self.partitions)

    @property
    def batches(self) -> int:
        return sum(p.batches for p in self.partitions)

    @property
    def merged_windows(self) -> int:
        return sum(p.merged_windows for p in self.partitions)

    @property
    def singleton_windows(self) -> int:
        return sum(p.singleton_windows for p in self.partitions)

    @property
    def fallback_batches(self) -> int:
        return sum(p.fallback_batches for p in self.partitions)

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0


@dataclass
class FaultReport:
    """What the fault plan did to one run, and what recovery cost.

    ``crashes``/``failed_wakes`` count injected events that actually
    fired; ``requeued`` counts queries pulled out of lost in-flight
    work or crashed per-node queues; ``retries`` counts re-dispatch
    attempts the retry policy scheduled; ``dead_lettered`` counts
    queries shed after exhausting their attempts (they appear in the
    measurement's ``shed`` list, so SLA accounting already treats them
    as misses).  ``wasted_busy_s``/``wasted_joules`` charge the partial
    work burnt before a mid-batch crash (busy-watt energy the fleet
    spent on answers it never delivered).  ``affected`` holds the
    stream indices of the queries that were retried or dead-lettered,
    so SLA attainment can be split by fault exposure.

    Under a placement map a crash additionally triggers re-replication
    of the shards the dead node held: ``re_replications`` counts shard
    copies started, ``copy_s`` their combined busy seconds across both
    endpoints (source read+ship, destination ship+write), and
    ``copy_joules`` the modeled busy-watt energy of those windows --
    recovery traffic the fleet bills on top of serving the workload.
    """

    crashes: int = 0
    failed_wakes: int = 0
    requeued: int = 0
    retries: int = 0
    dead_lettered: int = 0
    wasted_busy_s: float = 0.0
    wasted_joules: float = 0.0
    re_replications: int = 0
    copy_s: float = 0.0
    copy_joules: float = 0.0
    affected: set[int] = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "crashes": self.crashes,
            "failed_wakes": self.failed_wakes,
            "requeued": self.requeued,
            "retries": self.retries,
            "dead_lettered": self.dead_lettered,
            "wasted_busy_s": self.wasted_busy_s,
            "wasted_joules": self.wasted_joules,
            "re_replications": self.re_replications,
            "copy_s": self.copy_s,
            "copy_joules": self.copy_joules,
            "affected_queries": len(self.affected),
        }


@dataclass(frozen=True)
class ResponseColumns:
    """Served queries in structure-of-arrays form, on either engine.

    The one form a measurement stores, one row per served query in
    ascending ``query_idx``: each query's index in the time-ordered
    arrival stream the run worked on (None: every arrival was served,
    row ``k`` is arrival ``k``).  Per-query arrays plus the
    distinct-template and node-name tables the code columns point
    into.  A 1M-arrival run cannot afford per-query objects, so every
    consumer -- percentiles, SLA accounting, phase windows -- reads
    these arrays directly; :attr:`ClusterMeasurement.responses` derives
    the object view.
    """

    distinct: tuple[str, ...]
    node_names: tuple[str, ...]
    sql_idx: np.ndarray
    node_idx: np.ndarray
    arrival_s: np.ndarray
    start_s: np.ndarray
    completion_s: np.ndarray
    query_idx: np.ndarray | None

    def __len__(self) -> int:
        return len(self.arrival_s)


@dataclass
class NodeUsage:
    """One node's share of a cluster run.

    The span fields carry the node's timeline shape plus its linear
    power envelope, so phase-sliced reporting can attribute modeled
    energy to arbitrary time windows after the fact: sleep spans and
    wake transitions as ``(start_s, end_s)`` pairs.  The busy windows
    are the measurement's :attr:`ClusterMeasurement.busy_windows`.
    """

    name: str
    queries: int
    busy_s: float
    wake_s: float
    sleep_s: float
    horizon_s: float
    playback: RunMeasurement
    sleep_joules: float
    re_sleeps: int = 0
    sleep_spans: tuple[tuple[float, float], ...] = ()
    wake_spans: tuple[tuple[float, float], ...] = ()
    idle_wall_w: float = 0.0
    busy_wall_w: float = 0.0
    sleep_wall_w: float = 0.0

    @property
    def idle_s(self) -> float:
        """Awake-but-idle time (includes any pre/post-run idling)."""
        return max(0.0, self.playback.duration_s - self.busy_s - self.wake_s)

    @property
    def utilization(self) -> float:
        return self.busy_s / self.horizon_s if self.horizon_s else 0.0

    @property
    def wall_joules(self) -> float:
        """Playback wall energy plus the sleep-state draw."""
        return self.playback.wall_joules + self.sleep_joules

    def energy_breakdown(self) -> dict[str, float]:
        """Per-phase modeled joules under the linear power envelope.

        The four phases tile the node's horizon exactly -- busy windows
        at busy watts, wake transitions and awake-idle time at idle
        watts, sleep spans at sleep watts -- so their sum equals the
        envelope integral :attr:`ClusterMeasurement.modeled_wall_joules`
        computes independently (the attribution reconciliation).  The
        residual idle term is clamped at zero against float tiling
        noise only; phase spans never truly overlap.
        """
        idle_s = max(
            0.0, self.horizon_s - self.sleep_s - self.wake_s - self.busy_s
        )
        return {
            "busy_j": self.busy_wall_w * self.busy_s,
            "idle_j": self.idle_wall_w * idle_s,
            "wake_j": self.idle_wall_w * self.wake_s,
            "sleep_j": self.sleep_wall_w * self.sleep_s,
        }

    @property
    def modeled_joules(self) -> float:
        """Envelope-modeled node energy (sum of the phase breakdown)."""
        return sum(self.energy_breakdown().values())


@dataclass(frozen=True)
class PhaseWindow:
    """One time slice of a cluster run (phase-sliced reporting).

    ``modeled_joules`` integrates the per-node linear power envelope
    (sleep watts asleep, idle watts awake -- wake transitions included
    -- plus the busy delta inside busy windows) over the window; the
    playback totals remain the exact energy, this attributes them in
    time.  ``awake_node_s`` counts node-seconds any node spent out of
    the sleep state; ``re_sleeps`` counts sleep states *entered* inside
    the window.
    """

    start_s: float
    end_s: float
    arrivals: int
    served: int
    modeled_joules: float
    awake_node_s: float
    busy_node_s: float
    wake_node_s: float
    sleep_node_s: float
    re_sleeps: int
    p95_response_s: float

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def avg_power_w(self) -> float:
        return self.modeled_joules / self.span_s if self.span_s else 0.0


def _window_of(
    t: np.ndarray, los: np.ndarray, his: np.ndarray
) -> np.ndarray:
    """The window each time falls in, ``-1`` for none.

    Windows are half-open except the last, which closes at the horizon
    -- the horizon IS the final completion time, so an exclusive bound
    would drop the last query served.  The windows tile the run
    (``his[k] == los[k + 1]`` but for the last), so only the horizon
    bounds a time from above.
    """
    k = np.searchsorted(los, t, side="right")
    k -= 1
    k[~(t <= his[-1])] = -1
    return k


def _count_per_window(t, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """How many of the ascending times ``t`` fall in each window: the
    window edges are searched into the times."""
    first = np.searchsorted(t, los, side="left")
    return np.diff(first, append=np.searchsorted(t, his[-1], side="right"))


def _clipped(x: np.ndarray, horizon: float) -> np.ndarray:
    """``x`` clipped to ``[0, horizon]``, itself (no copy) when it already
    lies there; a NaN does not, so a column holding one is clipped."""
    if not len(x) or (0.0 <= x.min() and x.max() <= horizon):
        return x
    return np.clip(x, 0.0, horizon)


def _overlap_per_window(
    node_idx: np.ndarray, start: np.ndarray, end: np.ndarray,
    n_nodes: int, los: np.ndarray, his: np.ndarray,
) -> np.ndarray:
    """``(nodes, windows)`` seconds of node ``node_idx``'s spans inside
    each window, in one pass, each cell adding its spans in row order:
    a span is charged to the window it starts in, and the few that
    cross a window edge also to the one they end in and, whole, to
    every window between (a running count of spans opened minus spans
    closed, times the window length)."""
    count = len(los)
    cells = n_nodes * count
    if not cells:
        return np.zeros((n_nodes, count))
    start, end = _clipped(start, his[-1]), _clipped(end, his[-1])
    first = np.searchsorted(los, start, side="right")
    first -= 1
    upto = his[first]
    # A span crosses iff it ends past its window (a NaN end is searched).
    crosses = np.flatnonzero(~(end <= upto))
    np.minimum(end, upto, out=upto)
    upto -= start
    cell = count * node_idx
    cell += first
    seconds = np.zeros(cells)  # bincount of nothing is int, not float
    seconds += np.bincount(cell, weights=upto, minlength=cells)
    if crosses.size:
        row, first = count * node_idx[crosses], first[crosses]
        final = np.maximum(
            np.searchsorted(los, end[crosses], side="left") - 1, first
        )
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


def _span_rows(nodes: list[NodeUsage], kind: str):
    """Every node's ``kind`` spans as ``(node_idx, starts, ends)``."""
    rows = np.array([(j, *span) for j, n in enumerate(nodes)
                     for span in getattr(n, kind)]).reshape(-1, 3)
    return rows[:, 0].astype(np.int64), rows[:, 1], rows[:, 2]


@dataclass
class ClusterMeasurement:
    """A completed cluster simulation: energy, time, and service quality."""

    horizon_s: float
    nodes: list[NodeUsage]
    response_columns: ResponseColumns
    shed: list[ShedQuery] = field(default_factory=list)
    peak_power_w: float = 0.0
    cap_w: float | None = None
    qed: QedReport | None = None
    faults: FaultReport | None = None
    #: Deterministic identity of the run's full configuration (fleet,
    #: policy, faults, arrival stream, scale factor); stamped by the
    #: simulator so reports and bench history are attributable.
    run_id: str | None = None
    fingerprint: dict | None = None
    #: Every busy window as ``(node_idx, start_s, end_s)`` columns, each
    #: node's in the order it ran them (the schedule table's own).
    busy_windows: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0, np.int64), *np.zeros((2, 0)))
    )

    # -- energy -----------------------------------------------------------

    @property
    def wall_joules(self) -> float:
        """Cluster wall energy over the horizon, sleep states included."""
        return sum(n.wall_joules for n in self.nodes)

    @property
    def cpu_joules(self) -> float:
        return sum(n.playback.cpu_joules for n in self.nodes)

    @property
    def modeled_wall_joules(self) -> float:
        """Envelope-modeled cluster energy over the horizon.

        The integral of each node's linear power envelope: sleep watts
        asleep, idle watts awake (wake transitions included), plus the
        busy delta inside busy windows.  Computed independently of
        :meth:`NodeUsage.energy_breakdown` so the observability layer's
        per-phase attribution has a genuine reconciliation target
        rather than a restatement of itself.
        """
        total = 0.0
        for n in self.nodes:
            awake_s = n.horizon_s - n.sleep_s
            total += (
                n.sleep_wall_w * n.sleep_s
                + n.idle_wall_w * awake_s
                + (n.busy_wall_w - n.idle_wall_w) * n.busy_s
            )
        return total

    @property
    def edp(self) -> float:
        """Cluster EDP: wall energy x makespan."""
        return self.wall_joules * self.horizon_s

    @property
    def avg_power_w(self) -> float:
        return self.wall_joules / self.horizon_s if self.horizon_s else 0.0

    # -- service quality --------------------------------------------------

    @property
    def served(self) -> int:
        return len(self.response_columns)

    @property
    def responses(self) -> list[QueryResponse]:
        """Every served query as a :class:`QueryResponse`, derived from
        the columns on each read (identity tests and small-run
        inspection -- large runs read the columns)."""
        c = self.response_columns
        return [
            QueryResponse(c.distinct[sql], c.node_names[node], *times)
            for sql, node, *times in zip(
                c.sql_idx.tolist(), c.node_idx.tolist(),
                c.arrival_s.tolist(), c.start_s.tolist(),
                c.completion_s.tolist(),
            )
        ]

    @cached_property
    def _response_values(self) -> np.ndarray:
        """Response times as one array (every percentile and mean
        reads it; memoized -- the measurement is effectively immutable
        once composed)."""
        c = self.response_columns
        return c.completion_s - c.arrival_s

    def response_percentile(self, q: float) -> float:
        if self.served == 0:
            return 0.0
        return float(np.percentile(self._response_values, q))

    @cached_property
    def _reported_percentiles(self) -> tuple[float, float, float]:
        """p50, p95 and p99 from one partition of the responses
        (memoized like the values they read)."""
        if self.served == 0:
            return (0.0, 0.0, 0.0)
        p50, p95, p99 = np.percentile(
            self._response_values, (50.0, 95.0, 99.0)
        ).tolist()
        return (p50, p95, p99)

    @property
    def p50_response_s(self) -> float:
        return self._reported_percentiles[0]

    @property
    def p95_response_s(self) -> float:
        return self._reported_percentiles[1]

    @property
    def p99_response_s(self) -> float:
        return self._reported_percentiles[2]

    @property
    def mean_response_s(self) -> float:
        if self.served == 0:
            return 0.0
        return float(self._response_values.mean())

    def sla_violations(self, sla_s: float) -> int:
        """Served queries over the response-time SLA, plus shed queries
        (a refused query is the hardest SLA miss of all)."""
        if sla_s < 0:
            raise ValueError("sla_s must be non-negative")
        late = int((self._response_values > sla_s).sum())
        return late + len(self.shed)

    def sla_split(self, sla_s: float) -> dict[str, float]:
        """SLA attainment split by fault exposure.

        A query is *affected* when the fault report marks its stream
        index (retried or dead-lettered); everything else -- including
        every query of a fault-free run -- is unaffected.  Shed queries
        count against their side's attainment the same way
        :meth:`sla_violations` counts them.
        """
        if sla_s < 0:
            raise ValueError("sla_s must be non-negative")
        affected = self.faults.affected if self.faults else set()
        c = self.response_columns
        hit = np.zeros(len(c), dtype=bool)
        if affected:
            marked = np.fromiter(affected, np.int64, len(affected))
            if c.query_idx is not None:
                marked = np.isin(c.query_idx, marked)
            hit[marked] = True
        on_time = self._response_values <= sla_s
        totals = {True: int(hit.sum()), False: int((~hit).sum())}
        met = {True: int((hit & on_time).sum()),
               False: int((~hit & on_time).sum())}
        for q in self.shed:
            totals[q.query_idx in affected] += 1
        return {
            "affected_total": float(totals[True]),
            "affected_met": float(met[True]),
            "affected_attainment": (
                met[True] / totals[True] if totals[True] else 1.0
            ),
            "unaffected_total": float(totals[False]),
            "unaffected_met": float(met[False]),
            "unaffected_attainment": (
                met[False] / totals[False] if totals[False] else 1.0
            ),
        }

    # -- power cap --------------------------------------------------------

    @property
    def power_cap_overshoot_w(self) -> float:
        """Modeled peak power above the cap (0 when capped or uncapped).

        The cap router's feasibility check grants float-noise slack
        (1e-9 W); anything under a micro-watt here is that same noise,
        not a violation.
        """
        if self.cap_w is None:
            return 0.0
        overshoot = self.peak_power_w - self.cap_w
        return overshoot if overshoot > 1e-6 else 0.0

    # -- reporting --------------------------------------------------------

    @property
    def awake_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.playback.duration_s > 0)

    @property
    def re_sleeps(self) -> int:
        """Fleet-wide count of re-entered sleep states (dynamic
        re-consolidation activity; zero for the one-shot policies)."""
        return sum(n.re_sleeps for n in self.nodes)

    @property
    def awake_node_s(self) -> float:
        """Node-seconds spent out of the sleep state over the horizon --
        the quantity consolidation policies minimize."""
        return sum(
            n.horizon_s - n.sleep_s for n in self.nodes
        )

    def window_report(self, window_s: float) -> list[PhaseWindow]:
        """Slice the run into fixed windows (per-phase diurnal report).

        Each window attributes modeled energy, awake/busy/wake/sleep
        node-seconds, arrivals, completions, re-sleeps, and the p95
        response time of queries *completing* inside it.  Windows tile
        ``[0, horizon_s)``; the last one closes at the horizon.  The
        window count backs off a hair of float noise so a horizon that
        is K windows up to accumulated rounding (3 x 0.1 = 0.30000...04)
        yields K windows, not K plus a degenerate zero-width tail that
        would also steal the horizon-time completions from the real
        final window.  A zero-horizon measurement (nothing ever ran)
        still reports one well-formed ``[0, 0]`` window rather than
        silently dropping the run.

        One binning pass on either engine's measurement, O(responses +
        spans + windows x nodes): every time and span is placed in its
        window(s) once, never rescanned per window.
        """
        if not 0 < window_s < np.inf:
            raise ValueError("window_s must be positive and finite")
        horizon = max(0.0, self.horizon_s)
        count = (
            max(1, int(np.ceil(self.horizon_s / window_s - 1e-9)))
            if self.horizon_s > 0 else 1
        )
        los = np.arange(count) * window_s
        his = np.minimum(np.arange(1, count + 1) * window_s, horizon)
        his[-1] = horizon
        spans = his - los

        # The span overlaps run first, so their transients and the
        # response grouping's never coexist.
        nodes = self.nodes
        busy, wake, sleep = (
            _overlap_per_window(*columns, len(nodes), los, his)
            for columns in (
                self.busy_windows,
                _span_rows(nodes, "wake_spans"),
                _span_rows(nodes, "sleep_spans"),
            )
        )

        shed = np.sort([q.arrival_s for q in self.shed])
        arrivals = (
            _count_per_window(self.response_columns.arrival_s, los, his)
            + _count_per_window(shed, los, his)
        )
        # Response times grouped by completion window: a stable sort on
        # the window index (the -1s, in no window, sort first), then
        # one slice per window.
        completed_in = _window_of(
            self.response_columns.completion_s, los, his
        )
        served = np.bincount(completed_in + 1, minlength=count + 1)[1:]
        by_window = np.argsort(completed_in, kind="stable")
        del completed_in
        by_window = by_window[len(by_window) - served.sum():]
        responses = np.split(
            self._response_values[by_window], np.cumsum(served)[:-1]
        )
        re_sleeps = _count_per_window(np.sort([
            start for n in nodes for start, _ in n.sleep_spans
            if start > 0.0
        ]), los, his)
        sleep_w, idle_w, busy_w = (
            np.array([getattr(n, f"{state}_wall_w") for n in nodes])
            for state in ("sleep", "idle", "busy")
        )
        joules = (
            sleep_w @ sleep + idle_w @ ((spans - sleep) - busy)
            + busy_w @ busy
        )
        busy, wake, sleep = (m.sum(axis=0) for m in (busy, wake, sleep))
        return [
            PhaseWindow(
                start_s=float(los[k]),
                end_s=float(his[k]),
                arrivals=int(arrivals[k]),
                served=int(served[k]),
                modeled_joules=float(joules[k]),
                awake_node_s=float(len(nodes) * spans[k] - sleep[k]),
                busy_node_s=float(busy[k]),
                wake_node_s=float(wake[k]),
                sleep_node_s=float(sleep[k]),
                re_sleeps=int(re_sleeps[k]),
                p95_response_s=(
                    float(np.percentile(responses[k], 95.0))
                    if served[k] else 0.0
                ),
            )
            for k in range(count)
        ]

    def summary(self) -> dict[str, float]:
        """Flat scalar summary (CLI table / benchmark artifacts).

        Carries the run's deterministic ``run_id`` (the one non-float
        entry) when the simulator stamped one, so summaries -- and the
        artifacts built from them -- are attributable to exact configs.
        """
        out: dict = {}
        if self.run_id is not None:
            out["run_id"] = self.run_id
        out.update({
            "horizon_s": self.horizon_s,
            "served": float(self.served),
            "shed": float(len(self.shed)),
            "awake_nodes": float(self.awake_nodes),
            "wall_joules": self.wall_joules,
            "cpu_joules": self.cpu_joules,
            "edp": self.edp,
            "avg_power_w": self.avg_power_w,
            "peak_power_w": self.peak_power_w,
            "p50_response_s": self.p50_response_s,
            "p95_response_s": self.p95_response_s,
            "p99_response_s": self.p99_response_s,
            "mean_utilization": (
                sum(n.utilization for n in self.nodes) / len(self.nodes)
                if self.nodes else 0.0
            ),
            "awake_node_s": self.awake_node_s,
            "re_sleeps": float(self.re_sleeps),
        })
        if self.qed is not None:
            out.update({
                "qed_batches": float(self.qed.batches),
                "qed_mean_batch_size": self.qed.mean_batch_size,
                "qed_merged_windows": float(self.qed.merged_windows),
                "qed_singleton_windows": float(
                    self.qed.singleton_windows
                ),
                "qed_fallback_batches": float(self.qed.fallback_batches),
            })
        if self.faults is not None:
            out.update({
                "fault_crashes": float(self.faults.crashes),
                "fault_failed_wakes": float(self.faults.failed_wakes),
                "fault_requeued": float(self.faults.requeued),
                "fault_retries": float(self.faults.retries),
                "fault_dead_lettered": float(self.faults.dead_lettered),
                "fault_wasted_joules": self.faults.wasted_joules,
                "fault_re_replications": float(
                    self.faults.re_replications
                ),
                "fault_copy_joules": self.faults.copy_joules,
            })
        return out
