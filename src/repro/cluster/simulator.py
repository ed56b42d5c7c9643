"""Discrete-event cluster simulation over batched compiled-trace playback.

The paper's deployment story at production scale: an arrival stream of
queries hits a master, a routing policy places each query on a node
(possibly waking it, re-sleeping it, delaying it, or shedding it),
QED queues may batch arrivals into merged executions -- either a
private queue per node, or the paper's actual design, one
:class:`~repro.cluster.master_queue.MasterQueue` on the always-on
coordinator partitioned by mergeable template and feeding merged
batches to a batch-placement policy -- and every node is a calibrated
machine model -- possibly from a different hardware profile per node
group -- pinned to (or walked through) its own PVC operating points.

The simulation is split into two phases so the hot path stays a handful
of array operations:

1. :meth:`ClusterSimulator.schedule` -- resolve each arrival to a cached
   :class:`~repro.workloads.runner.QueryExecution` (execute-once: each
   distinct statement hits the database once, results are evicted once
   the trace compiles), pre-cost each distinct query once per distinct
   ``(hardware profile, PVC setting)`` pair with one
   ``run_compiled_batch`` call -- including every ladder setting an
   adaptive router may apply -- then run the event loop in pure Python
   over floats.  Produces a :class:`ClusterSchedule`: per-node timelines
   (busy windows + idle/wake gaps, minus sleep spans) as compiled-trace
   pieces, each tagged with the setting it was scheduled under.
2. :meth:`ClusterSimulator.playback` -- play every node's whole timeline
   with one stacked array call per distinct (hw, setting) pair
   (:func:`~repro.cluster.playback.play_batched`), or cost a vectorized
   schedule's counts directly
   (:func:`~repro.cluster.playback.play_columnar`), and compose the
   :class:`~repro.cluster.measure.ClusterMeasurement`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.cluster.master_queue import DispatchedBatch, MasterQueue
from repro.cluster.measure import (
    ClusterMeasurement,
    FaultReport,
    NodeUsage,
    QedPartitionStats,
    QedReport,
    ResponseColumns,
    ShedQuery,
    span_columns,
)
from repro.cluster.node import (
    NodeSpec,
    SimulatedNode,
    SUT_FACTORIES,
    TimelineAccounting,
    node_timeline_pieces,
)
from repro.cluster.placement import PlacementMap, replication_copy_trace
from repro.cluster.playback import play_batched, play_columnar
from repro.cluster.routing import (
    AdaptivePvcRouter,
    ConsolidatePlacement,
    ConsolidateRouter,
    Decision,
    Router,
)
from repro.core.qed.aggregator import NotMergeableError, merge_queries
from repro.core.qed.executor import merged_batch_trace
from repro.core.qed.queue import Batch, QueuedQuery
from repro.db.engine import Database
from repro.hardware.cpu import PvcSetting
from repro.obs.fingerprint import config_fingerprint, run_id_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MASTER_TRACK, NULL_TRACER, Tracer
from repro.hardware.system import SystemUnderTest
from repro.hardware.trace import CompiledTrace
from repro.workloads.arrivals import Arrival, ArrivalStream
from repro.workloads.client import ClientModel
from repro.workloads.runner import TraceCache, WorkloadRunner

#: Key under which a query's duration is pre-costed: the node's
#: hardware profile plus the PVC setting it currently holds.
CostKey = tuple[str, PvcSetting]


@dataclass(frozen=True)
class NodeTimeline(TimelineAccounting):
    """Immutable snapshot of one node's run, taken at schedule time.

    ``ClusterSchedule`` must not alias live :class:`SimulatedNode`
    state: a later ``schedule()`` call on the same simulator resets the
    nodes, and playing back an earlier schedule would otherwise mix two
    runs' bookkeeping.
    """

    spec: NodeSpec
    sut: SystemUnderTest
    scheduled: tuple
    started_awake: bool
    sleep_log: tuple
    wake_log: tuple
    setting_log: tuple

    @classmethod
    def snapshot(cls, node: SimulatedNode) -> "NodeTimeline":
        return cls(
            spec=node.spec,
            sut=node.sut,
            scheduled=tuple(node.scheduled),
            started_awake=node.started_awake,
            sleep_log=tuple(node.sleep_log),
            wake_log=tuple(node.wake_log),
            setting_log=tuple(node.setting_log),
        )


@dataclass
class ColumnarSchedule:
    """Structure-of-arrays form of a vectorized scheduling run.

    One row per arrival, in arrival order: which node it landed on,
    which distinct template it is, and the start/end the chunked
    routing recurrence assigned.  ``order``/``offsets`` give each
    node's rows (``order[offsets[j]:offsets[j+1]]``, arrival-ordered
    within a node via the stable sort), and ``costed`` carries the
    schedule phase's pre-costed per-distinct measurements so playback
    can re-cost the whole fleet as counts-times-measurement dot
    products without re-playing any trace.
    """

    distinct: list[str]
    arrival_s: np.ndarray
    node_idx: np.ndarray
    sql_idx: np.ndarray
    start_s: np.ndarray
    end_s: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    costed: dict = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.arrival_s)

    def rows_for(self, j: int) -> np.ndarray:
        """Indices of node ``j``'s arrivals, in arrival order."""
        return self.order[self.offsets[j]:self.offsets[j + 1]]


@dataclass
class ClusterSchedule:
    """The event loop's outcome: who runs what, when, on which node.

    Produced in one of two shapes: the legacy per-arrival loop fills
    ``pieces_by_node`` (compiled-trace timeline pieces per node); the
    vectorized fast path fills ``columnar`` instead and leaves the
    piece maps empty -- at 1M arrivals materializing per-arrival piece
    objects would cost more than the event loop itself.
    """

    nodes: list[NodeTimeline]
    table: dict[str, CompiledTrace]
    pieces_by_node: dict[str, list[CompiledTrace]]
    settings_by_node: dict[str, list[PvcSetting]]
    horizon_s: float
    shed: list[ShedQuery]
    peak_power_w: float
    cap_w: float | None
    workload_class: str
    qed: QedReport | None = None
    faults: FaultReport | None = None
    run_id: str | None = None
    fingerprint: dict | None = None
    columnar: ColumnarSchedule | None = None

    @property
    def scheduled_pieces(self) -> int:
        if self.columnar is not None:
            return len(self.columnar)
        return sum(len(p) for p in self.pieces_by_node.values())


class _ServiceView(Mapping):
    """Live node-name -> service-time mapping for one statement.

    Reads each node's *current* PVC setting on every lookup, so a
    router that retunes a node mid-stream (``AdaptivePvcRouter``)
    immediately sees -- and the simulator immediately schedules --
    service times under the new setting.  Routers index it exactly like
    the plain dict it replaces.
    """

    __slots__ = ("_durations", "_nodes", "_sql")

    def __init__(self, durations: dict[CostKey, dict[str, float]],
                 nodes: dict[str, SimulatedNode], sql: str):
        self._durations = durations
        self._nodes = nodes
        self._sql = sql

    def __getitem__(self, name: str) -> float:
        node = self._nodes[name]
        try:
            return self._durations[(node.spec.hw, node.setting)][self._sql]
        except KeyError:
            raise KeyError(
                f"no pre-costed duration for node {name!r} under setting "
                f"{node.setting.describe()!r}; routers that retune nodes "
                "must expose the settings they use via a `ladder` attribute"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class ClusterSimulator:
    """Serve an arrival stream across a simulated fleet.

    Every node's machine comes from its spec's hardware profile
    (``hw``, resolved through ``sut_factories`` with
    :data:`~repro.cluster.node.SUT_FACTORIES` as the base registry)
    with the spec's PVC setting applied, which keeps same-(hw, setting)
    nodes playback-equivalent -- the property batched playback
    exploits.  ``sut_factory`` (single-profile fleets) overrides the
    ``"paper"`` profile, preserving the homogeneous-fleet call shape.
    Without a ``placement`` map the shared database models fully
    replicated data: any node can serve any query.  With one, each
    placed table is sharded with k replicas across named nodes
    (:class:`~repro.cluster.placement.PlacementMap`); an arrival is
    routable only to nodes holding every shard its predicates may
    touch, consolidating routers keep a quorum of every shard awake,
    and a crash triggers re-replication copy traffic billed on both
    endpoints.
    """

    def __init__(
        self,
        db: Database,
        specs: list[NodeSpec],
        router: Router,
        sut_factory: Callable[[], SystemUnderTest] | None = None,
        client: ClientModel | None = None,
        trace_cache: TraceCache | None = None,
        sut_factories: dict[str, Callable[[], SystemUnderTest]] | None = None,
        master_queue: MasterQueue | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        placement: PlacementMap | None = None,
    ):
        if not specs:
            raise ValueError("a cluster needs at least one node")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        if placement is not None:
            unknown = placement.node_names - set(names)
            if unknown:
                raise ValueError(
                    "placement map references unknown nodes: "
                    f"{sorted(unknown)}"
                )
        if master_queue is not None:
            if any(s.queue_policy is not None for s in specs):
                raise ValueError(
                    "a master admission queue replaces per-node QED "
                    "queues; drop the node specs' queue_policy"
                )
            if getattr(router, "cap_w", None) is not None:
                # Same reasoning as PowerCapRouter's per-node-queue
                # check: batch dispatch re-times work the cap never saw.
                raise ValueError(
                    "PowerCapRouter cannot cap a master-queued cluster; "
                    "drop the master queue or use another router"
                )
            stateful = (ConsolidateRouter, AdaptivePvcRouter)
            if isinstance(router, stateful) and not isinstance(
                master_queue.placement, ConsolidatePlacement
            ):
                # These routers only act from route() -- which the
                # master loop never calls.  A consolidate family would
                # funnel the whole stream onto its one awake node; an
                # adaptive-PVC router would pin every node to the
                # cheapest ladder rung and never adapt.
                raise ValueError(
                    "a consolidate- or adaptive-family router under a "
                    "master queue needs ConsolidatePlacement (the "
                    "router only acts on routed dispatches)"
                )
        self.master_queue = master_queue
        factories = dict(SUT_FACTORIES)
        if sut_factories:
            factories.update(sut_factories)
        if sut_factory is not None:
            factories["paper"] = sut_factory
        for spec in specs:
            if spec.hw not in factories:
                raise ValueError(
                    f"node {spec.name!r} references unknown hardware "
                    f"profile {spec.hw!r}; known: {sorted(factories)}"
                )
        self.db = db
        self.router = router
        self.placement = placement
        #: Bumped whenever shard ownership changes mid-run (a
        #: re-replication copy lands); invalidates memoized
        #: eligible-node lists.
        self._owner_gen = 0
        self._eligible_cache: dict = {}
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        #: Observability hooks.  The default tracer is the shared no-op
        #: (``enabled=False``), so the event loop only ever pays dead
        #: branch checks; a metrics registry is sampled on simulated
        #: window boundaries when attached.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._factories = factories
        self.runner = WorkloadRunner(
            db, factories[specs[0].hw](), client=client,
            trace_cache=trace_cache,
        )
        self.nodes: list[SimulatedNode] = []
        for spec in specs:
            sut = factories[spec.hw]()
            sut.apply_setting(spec.setting)
            self.nodes.append(SimulatedNode(spec, sut))

    # -- phase 1: event loop ---------------------------------------------

    def _cost_keys(self) -> list[CostKey]:
        """Every (hw, setting) pair the event loop may need durations
        for: each node's pinned setting, plus -- when the router walks
        nodes along a PVC ladder -- every ladder rung on every hardware
        profile in the fleet."""
        keys: dict[CostKey, None] = {}
        for node in self.nodes:
            keys.setdefault((node.spec.hw, node.spec.setting))
        ladder = getattr(self.router, "ladder", None) or ()
        if ladder:
            for hw in dict.fromkeys(n.spec.hw for n in self.nodes):
                for setting in ladder:
                    keys.setdefault((hw, setting))
        return list(keys)

    def _sut_for(self, hw: str) -> SystemUnderTest:
        """A representative machine for ``hw`` (any node of that
        profile; factories make them interchangeable)."""
        for node in self.nodes:
            if node.spec.hw == hw:
                return node.sut
        raise KeyError(hw)  # pragma: no cover - keys come from nodes

    def _execute_once_table(
        self, distinct: Sequence[str]
    ) -> dict[str, CompiledTrace]:
        """Execute-once: each distinct statement hits the database once;
        row data is evicted as soon as the trace is compiled."""
        table: dict[str, CompiledTrace] = {}
        for i, sql in enumerate(distinct):
            execution = self.runner.cached_execution(
                sql, label=f"c{i}", keep_result=False
            )
            table[sql] = execution.compiled_trace()
        return table

    def _precost(
        self, table: dict[str, CompiledTrace], workload_class: str
    ) -> tuple[dict[CostKey, dict[str, float]], dict[CostKey, list]]:
        """Pre-cost each distinct query per (hw, setting) pair: one
        stacked call per pair replaces a per-(query, node) loop.  The
        full per-distinct measurements ride along so columnar playback
        can reuse them as counts-times-measurement dot products."""
        distinct = list(table)
        durations: dict[CostKey, dict[str, float]] = {}
        costed: dict[CostKey, list] = {}
        for hw, setting in self._cost_keys():
            sut = self._sut_for(hw)
            original = sut.setting
            sut.apply_setting(setting)
            try:
                batch = sut.run_compiled_batch(
                    [table[sql] for sql in distinct], workload_class
                )
            finally:
                sut.apply_setting(original)
            durations[(hw, setting)] = {
                sql: m.duration_s for sql, m in zip(distinct, batch)
            }
            costed[(hw, setting)] = batch
        return durations, costed

    def vectorized_ineligibility(self) -> str | None:
        """Why this configuration cannot take the vectorized fast path
        (``None`` when it can).

        The chunked form can only express stateless-over-arrivals
        routing on an always-awake fleet: no QED queues (master or
        per-node), no fault/retry interleaving, no tracing or metrics
        hooks (both sample per arrival), and a router that implements
        ``route_chunk``.
        """
        if self.master_queue is not None:
            return "a master QED queue batches arrivals statefully"
        if any(n.spec.queue_policy is not None for n in self.nodes):
            return "per-node QED queues batch arrivals statefully"
        if self.faults is not None and not self.faults.empty:
            return "an active fault plan interleaves crashes and retries"
        if self.tracer.enabled:
            return "span tracing records per-arrival events"
        if self.metrics is not None:
            return "streaming metrics sample per-arrival fleet state"
        if not callable(getattr(self.router, "route_chunk", None)):
            return (
                f"router {type(self.router).__name__} has no "
                "route_chunk fast path"
            )
        if (
            self.placement is not None
            and not getattr(self.router, "placement_chunk", False)
            and self._placement_constrains()
        ):
            return (
                "a placement map constrains routing and router "
                f"{type(self.router).__name__} has no placement-masked "
                "route_chunk"
            )
        return None

    def _placement_constrains(self) -> bool:
        """Whether the map can ever narrow a routing pool.

        A fully replicated map (every node holds every shard) is
        vacuous: all pools stay full-fleet, so routers without a
        masked ``route_chunk`` may still take the fast path and stay
        bitwise identical to the no-placement run.
        """
        all_keys = {
            (tp.table, shard)
            for tp in self.placement.tables.values()
            for shard in range(tp.shards)
        }
        return any(
            not all_keys <= self.placement.shards_of(n.spec.name)
            for n in self.nodes
        )

    # -- data placement ---------------------------------------------------

    def _install_placement(self) -> None:
        """Pin the run's shard ownership onto the fleet.

        Called at the top of every ``schedule()``: each node gets a
        fresh (mutable) copy of its initial shard set -- re-replication
        grows a destination's set mid-run, so a prior run's copies must
        not leak into this one -- and the router learns the map so its
        quorum logic and ``prepare`` cover can see it.  With no map
        this resets both to None, reproducing the seed behavior.
        """
        placement = self.placement
        if placement is None:
            # Leave the class-level ``placement = None`` in charge: an
            # instance attribute -- even None -- would show up in
            # ``Router.describe()`` and shift the run fingerprint of
            # placement-free runs.
            self.router.__dict__.pop("placement", None)
        else:
            self.router.placement = placement
        self._owner_gen += 1
        for node in self.nodes:
            node.shards = (
                set(placement.shards_of(node.spec.name))
                if placement is not None else None
            )

    def _eligible_nodes(self, sql: str) -> list[SimulatedNode] | None:
        """Nodes holding every shard ``sql`` may touch, or None when
        the map does not constrain the statement (including the case
        where every node qualifies -- full-fleet routing is then both
        correct and identical to the no-placement run)."""
        if self.placement is None:
            return None
        entry = self._eligible_cache.get(sql)
        if entry is not None and entry[0] == self._owner_gen:
            return entry[1]
        required = self.placement.required_shards(sql)
        if required is None:
            pool = None
        else:
            pool = [
                n for n in self.nodes
                if n.shards is not None and required <= n.shards
            ]
            if len(pool) == len(self.nodes):
                pool = None
        self._eligible_cache[sql] = (self._owner_gen, pool)
        return pool

    def _route(self, sql: str, now_s: float, service_by_node) -> Decision:
        """Route one arrival through the placement constraint.

        The router sees only the eligible replica set (in fleet order,
        so tie-breaks match the vectorized mask form); a statement no
        live combination of nodes can serve degrades to a refusal --
        the caller's retry/shed policy takes over, rows are never
        silently dropped.
        """
        pool = self._eligible_nodes(sql)
        if pool is None:
            return self.router.route(sql, now_s, service_by_node,
                                     self.nodes)
        if not pool:
            return Decision(None, now_s)
        return self.router.route(sql, now_s, service_by_node, pool)

    def _eligibility_mask(self, distinct: list[str]) -> np.ndarray | None:
        """The ``(distinct, nodes)`` bool mask for masked route_chunk,
        or None when no statement is actually constrained."""
        if self.placement is None:
            return None
        rows = np.ones((len(distinct), len(self.nodes)), dtype=bool)
        constrained = False
        for d, sql in enumerate(distinct):
            required = self.placement.required_shards(sql)
            if required is None:
                continue
            for j, node in enumerate(self.nodes):
                if node.shards is None or not required <= node.shards:
                    rows[d, j] = False
                    constrained = True
        return rows if constrained else None

    def schedule(self, arrivals: Iterable[Arrival],
                 vectorized: bool | None = None) -> ClusterSchedule:
        """Route every arrival; returns the fleet's scheduled timelines.

        ``arrivals`` is an :class:`ArrivalStream` (anything else is
        coerced and validated once, here); both engines work on its
        columns, time-sorted only when they are not already.

        ``vectorized=None`` (the default) takes the chunked fast path
        whenever the configuration is eligible (see
        :meth:`vectorized_ineligibility`) and falls back to the exact
        per-arrival loop otherwise; ``False`` forces the loop (the
        oracle for identity tests, and the only form with per-piece
        timelines); ``True`` demands the fast path and raises when the
        configuration cannot take it.
        """
        reason = self.vectorized_ineligibility()
        if vectorized is True and reason is not None:
            raise ValueError(
                f"vectorized scheduling unavailable: {reason}"
            )
        use_fast = (reason is None) if vectorized is None else vectorized
        arrivals = ArrivalStream.coerce(arrivals).in_time_order()
        distinct = list(arrivals.distinct)
        workload_class = self.db.workload_class
        self._install_placement()
        if use_fast and self.placement is not None:
            # The columnar path cannot shed/queue: a statement with no
            # eligible node (no node holds all its shards) needs the
            # loop's degrade policy.
            unroutable = any(
                self._eligible_nodes(sql) == [] for sql in distinct
            )
            if unroutable and vectorized is True:
                raise ValueError(
                    "vectorized scheduling unavailable: the placement "
                    "map leaves some statement with no eligible node "
                    "(the loop path queues or sheds it)"
                )
            use_fast = use_fast and not unroutable

        # Every run is stamped with a deterministic identity derived
        # from its full configuration; same config => same run_id.
        fingerprint = config_fingerprint(
            [node.spec for node in self.nodes], self.router,
            master_queue=self.master_queue, faults=self.faults,
            retry=self.retry, arrivals=arrivals,
            workload_class=workload_class,
            scale_factor=getattr(self.db, "scale_factor", None),
            placement=self.placement,
        )
        run_id = run_id_for(fingerprint)
        # NHPP generators legitimately produce empty streams in low-rate
        # windows; an empty stream is an empty schedule (zero energy,
        # zero horizon) off the event loop, not an error.
        if use_fast and len(arrivals):
            return self._schedule_vectorized(
                arrivals, workload_class, fingerprint, run_id
            )
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin_run(
                {"run_id": run_id, "fingerprint": fingerprint}
            )
        metrics = self.metrics
        if metrics is not None:
            metrics.begin_run(run_id)
            self._next_sample_s = 0.0

        table = self._execute_once_table(distinct)
        durations, _costed = self._precost(table, workload_class)

        # Per-distinct-SQL live service views, shared across arrivals
        # (the event loop would otherwise rebuild an identical mapping
        # ~10k times); routers only read them.
        nodes_by_name = {node.spec.name: node for node in self.nodes}
        service_views = {
            sql: _ServiceView(durations, nodes_by_name, sql)
            for sql in distinct
        }

        # Fault layer: install the plan on every node *before* the
        # router's prepare (node resets preserve it), seed the run's
        # fault RNG, and lay the crash events out as a time heap.  With
        # no plan -- or an empty one -- none of the hooks below run and
        # the event loop is byte-identical to the fault-free simulator.
        plan = self.faults
        active = plan is not None and not plan.empty
        shed: list[ShedQuery] = []
        report = FaultReport() if active else None
        self._fault_active = active
        self._fault_report = report
        for node in self.nodes:
            node.faults = plan if active else None
        if active:
            fleet = {n.spec.name for n in self.nodes}
            unknown = {s.node for s in plan.specs} - fleet
            if unknown:
                raise ValueError(
                    f"fault plan targets unknown nodes: {sorted(unknown)}"
                )
            plan.begin_run()
            self._fault_events: list = []
            self._fault_seq = 0
            for node in self.nodes:
                for spec in plan.crashes_for(node.spec.name):
                    heapq.heappush(
                        self._fault_events,
                        (spec.at_s, self._fault_seq, "crash", node, spec),
                    )
                    self._fault_seq += 1
            self._retries: list = []
            self._retry_seq = 0
            self._retry_ctx = (
                table, durations, service_views, workload_class, shed
            )

        self.router.prepare(self.nodes)
        qed: QedReport | None = None
        end_of_arrivals = float(arrivals.times[-1]) if len(arrivals) else 0.0
        if self.master_queue is not None:
            qed = QedReport(mode="master")
            self._run_master_loop(
                arrivals, end_of_arrivals, table, durations,
                service_views, workload_class, shed, qed,
            )
        else:
            queued = [n for n in self.nodes if n.queue is not None]
            if queued:
                qed = QedReport(mode="node")
            for sql, now in arrivals.pairs():
                if tracing:
                    tracer.arrival(sql, now)
                if metrics is not None:
                    self._sample_metrics_until(now)
                    metrics.counter("arrivals").inc()
                if active:
                    self._advance_faults(now)
                for node in queued:  # timeout-based QED dispatches
                    batch = self._expire_queue(node, now)
                    if batch is not None:
                        self._dispatch_node_batch(
                            node, batch, table, durations,
                            workload_class, qed,
                        )
                service_by_node = service_views[sql]
                decision = self._route(sql, now, service_by_node)
                if decision.node is None:
                    if active:
                        # No serviceable node right now; the retry
                        # policy re-offers the query after backoff.
                        self._push_retry(sql, now, now, 1, requeue=False)
                    else:
                        shed.append(ShedQuery(sql, now))
                    continue
                node = decision.node
                if node.queue is not None:
                    batch = node.queue.submit(sql, now)
                    if batch is not None:
                        self._dispatch_node_batch(
                            node, batch, table, durations,
                            workload_class, qed,
                        )
                else:
                    if tracing and decision.dispatch_s - now > 1e-12:
                        # Admission delay (power-cap headroom wait).
                        tracer.span(
                            "queue-wait", MASTER_TRACK, now,
                            decision.dispatch_s,
                            parent=tracer.parent_of(sql, now),
                            sql=sql,
                        )
                    node.assign(
                        sql, decision.dispatch_s,
                        service_by_node[node.spec.name], ((sql, now),),
                    )
            for node in queued:  # trailing partial batches drain
                batch = node.queue.drain(end_of_arrivals)
                if batch is not None:
                    self._dispatch_node_batch(
                        node, batch, table, durations, workload_class,
                        qed,
                    )

        if active:
            self._finish_faults(end_of_arrivals)
            report.failed_wakes = sum(
                len(n.failed_wakes) for n in self.nodes
            )

        horizon = end_of_arrivals
        for node in self.nodes:
            horizon = max(horizon, node.busy_until)
            if node.awake:
                horizon = max(horizon, node.wake_ready_s)

        if tracing:
            # Timeline spans are emitted post-hoc from the node logs --
            # the hot loop never touches the tracer for them.  Every
            # served query gets its terminal here; under an active
            # fault plan the shed list is exactly the dead-letter set
            # (terminals already emitted at dead-letter time), so the
            # shed pass below covers fault-free refusals only.
            for node in self.nodes:
                track = node.spec.name
                for t in node.failed_wakes:
                    tracer.instant("wake-failure", track, t)
                for called, ready in node.wake_log:
                    tracer.span("wake", track, called, ready)
                for start, end in node.sleep_spans(horizon):
                    tracer.span("sleep", track, start, end)
                for work in node.scheduled:
                    window_id = tracer.span(
                        "playback", track, work.start_s, work.end_s,
                        queries=len(work.queries),
                        stretch_s=work.stretch_s,
                    )
                    for sql, arrival_s in work.queries:
                        tracer.terminal(
                            "served", sql, arrival_s, work.end_s,
                            track=track, window=window_id,
                        )
            if not active:
                for q in shed:
                    tracer.terminal("shed", q.sql, q.arrival_s,
                                    q.arrival_s)
            tracer.finish(horizon)
        if metrics is not None:
            self._sample_metrics_until(horizon)
            response = metrics.histogram("response_s")
            for node in self.nodes:
                for work in node.scheduled:
                    for _sql, arrival_s in work.queries:
                        response.observe(work.end_s - arrival_s)

        pieces_by_node: dict[str, list[CompiledTrace]] = {}
        settings_by_node: dict[str, list[PvcSetting]] = {}
        for node in self.nodes:
            pieces, settings = node_timeline_pieces(node, table, horizon)
            pieces_by_node[node.spec.name] = pieces
            settings_by_node[node.spec.name] = settings
        return ClusterSchedule(
            nodes=[NodeTimeline.snapshot(n) for n in self.nodes],
            table=table,
            pieces_by_node=pieces_by_node,
            settings_by_node=settings_by_node,
            horizon_s=horizon,
            shed=shed,
            peak_power_w=self._peak_model_power_w(horizon),
            cap_w=getattr(self.router, "cap_w", None),
            workload_class=workload_class,
            qed=qed,
            faults=report,
            run_id=run_id,
            fingerprint=fingerprint,
        )

    #: Arrivals routed per ``route_chunk`` call: large enough to
    #: amortize per-chunk numpy overhead, small enough to bound the
    #: transient per-chunk arrays.
    SCHEDULE_CHUNK = 131072

    def _schedule_vectorized(
        self,
        arrivals: ArrivalStream,
        workload_class: str,
        fingerprint: dict,
        run_id: str,
    ) -> ClusterSchedule:
        """The chunked fast path: arrivals as structure-of-arrays.

        The stream's time and statement-code columns (already sorted,
        codes in first-arrival order) are used as they are; pre-costed
        service durations become a ``(distinct, nodes)`` matrix, the
        router places whole chunks at once (``route_chunk``), and the
        outcome stays columnar all the way into playback.  From the
        generator to the measurement no per-arrival Python object
        exists, which is what makes 1M arrivals x 100 nodes a
        seconds-scale run.
        """
        distinct = list(arrivals.distinct)
        table = self._execute_once_table(distinct)
        durations, costed = self._precost(table, workload_class)
        self._fault_active = False
        self._fault_report = None
        self.router.prepare(self.nodes)

        n = len(arrivals)
        n_nodes = len(self.nodes)
        times, sql_idx = arrivals.times, arrivals.sql_idx
        service = np.empty((len(distinct), n_nodes), dtype=np.float64)
        for j, node in enumerate(self.nodes):
            per = durations[(node.spec.hw, node.spec.setting)]
            service[:, j] = [per[sql] for sql in distinct]

        node_idx = np.empty(n, dtype=np.int64)
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        # Placement constraint as a per-template eligibility mask; None
        # when no template is constrained, keeping the unconstrained
        # call shape (and its floats) bit-identical to the seed path.
        mask = self._eligibility_mask(distinct)
        route_kwargs = {} if mask is None else {"eligible": mask}
        for lo in range(0, n, self.SCHEDULE_CHUNK):
            hi = min(lo + self.SCHEDULE_CHUNK, n)
            idx, st, en = self.router.route_chunk(
                times[lo:hi], sql_idx[lo:hi], service, distinct,
                self.nodes, **route_kwargs,
            )
            node_idx[lo:hi] = idx
            starts[lo:hi] = st
            ends[lo:hi] = en

        order = np.argsort(node_idx, kind="stable")
        offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(node_idx, minlength=n_nodes), out=offsets[1:]
        )
        columnar = ColumnarSchedule(
            distinct=distinct, arrival_s=times, node_idx=node_idx,
            sql_idx=sql_idx, start_s=starts, end_s=ends,
            order=order, offsets=offsets, costed=costed,
        )
        horizon = float(max(times[-1], ends.max()))
        return ClusterSchedule(
            nodes=[NodeTimeline.snapshot(node) for node in self.nodes],
            table=table,
            pieces_by_node={n_.spec.name: [] for n_ in self.nodes},
            settings_by_node={n_.spec.name: [] for n_ in self.nodes},
            horizon_s=horizon,
            shed=[],
            peak_power_w=self._peak_power_columnar(
                node_idx, starts, ends
            ),
            cap_w=getattr(self.router, "cap_w", None),
            workload_class=workload_class,
            qed=None,
            faults=None,
            run_id=run_id,
            fingerprint=fingerprint,
            columnar=columnar,
        )

    def _peak_power_columnar(
        self, node_idx: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> float:
        """Peak fleet power for an always-awake columnar run.

        The same power-step sweep as :meth:`_peak_model_power_w`,
        vectorized: the baseline is every node's idle draw, each busy
        window steps by its node's (busy - idle) delta, and a lexsort
        on (time, delta) reproduces the legacy sweep's tie order.
        """
        baseline = 0.0
        deltas = np.empty(len(self.nodes))
        for j, node in enumerate(self.nodes):
            est = node.power_estimate()
            baseline += est.idle_wall_w
            deltas[j] = est.busy_wall_w - est.idle_wall_w
        per_arrival = deltas[node_idx]
        ev_t = np.concatenate([starts, ends])
        ev_d = np.concatenate([per_arrival, -per_arrival])
        running = np.cumsum(ev_d[np.lexsort((ev_d, ev_t))])
        if running.size == 0:
            return baseline
        return baseline + max(0.0, float(running.max()))

    def _expire_queue(self, node: SimulatedNode, now_s: float):
        """Dispatch a timed-out batch *at its expiry*, not at ``now``.

        Between sparse arrivals the queue's timeout fires on its own;
        ticking it at the next arrival's timestamp would charge the
        whole inter-arrival gap to the batch's response times.
        """
        expiry = node.queue.expiry_s
        if expiry is None or expiry > now_s:
            return None
        # flush (not tick): float addition noise in the expiry must not
        # leave the policy un-fired and the batch stranded.
        return node.queue.flush(expiry)

    # -- streaming metrics -------------------------------------------------

    def _sample_metrics_until(self, now_s: float) -> None:
        """Snapshot the registry at every window boundary <= ``now_s``
        (the same ``k * window_s`` tiling ``window_report`` slices on)."""
        while self._next_sample_s <= now_s + 1e-12:
            self._sample_metrics(self._next_sample_s)
            self._next_sample_s += self.metrics.window_s

    def _sample_metrics(self, t_s: float) -> None:
        """Read the live fleet state into the gauges and snapshot."""
        reg = self.metrics
        awake = 0
        for node in self.nodes:
            name = node.spec.name
            reg.gauge(f"node_watts.{name}").set(node.modeled_power_w(t_s))
            if node.awake:
                awake += 1
            if node.queue is not None:
                reg.gauge(f"queue_depth.node:{name}").set(
                    float(len(node.queue))
                )
        reg.gauge("awake_nodes").set(float(awake))
        if self.master_queue is not None:
            depths = self.master_queue.depths()
            reg.gauge("master_queue_depth").set(
                float(sum(depths.values()))
            )
            for label, depth in depths.items():
                reg.gauge(f"queue_depth.{label}").set(float(depth))
        if self._fault_active:
            reg.gauge("retry_backlog").set(float(len(self._retries)))
        reg.sample(t_s)

    # -- fault injection & recovery ---------------------------------------

    def _advance_faults(self, now_s: float) -> bool:
        """Fire every pending fault event and due retry up to ``now_s``,
        interleaved in time order (a retry dispatched at its ready time
        sees exactly the crashes/recoveries that preceded it)."""
        fired = False
        while True:
            fault_t = (
                self._fault_events[0][0] if self._fault_events
                else math.inf
            )
            retry_t = self._retries[0][0] if self._retries else math.inf
            if min(fault_t, retry_t) > now_s + 1e-12:
                return fired
            fired = True
            if fault_t <= retry_t:
                self._fire_fault_event()
            else:
                ready, _, sql, arrival_s, attempt = heapq.heappop(
                    self._retries
                )
                self._dispatch_retry(sql, arrival_s, ready, attempt)

    def _fire_fault_event(self) -> None:
        """Apply the earliest pending crash/recover event."""
        at_s, _, kind, node, spec = heapq.heappop(self._fault_events)
        if kind == "recover":
            node.recover(at_s)
            if self.tracer.enabled:
                self.tracer.instant("recover", node.spec.name, at_s)
            return
        if node.crashed_s is not None:
            return  # already down; an overlapping crash is absorbed
        lost, wasted = node.crash(at_s)
        if self.tracer.enabled:
            self.tracer.instant(
                "crash", node.spec.name, at_s,
                lost=len(lost), wasted_s=wasted,
            )
        if self.metrics is not None:
            self.metrics.counter("crashes").inc()
        report = self._fault_report
        report.crashes += 1
        report.wasted_busy_s += wasted
        # Modeled write-off: the partial burn ran at busy watts before
        # the crash threw its results away.
        report.wasted_joules += node.power_estimate().busy_wall_w * wasted
        for sql, arrival_s in lost:
            self._push_retry(sql, arrival_s, at_s, 1, requeue=True)
        if self.placement is not None:
            self._start_re_replication(node, at_s)
        if spec.recover_s is not None:
            heapq.heappush(
                self._fault_events,
                (spec.recover_s, self._fault_seq, "recover", node, spec),
            )
            self._fault_seq += 1

    def _shard_bytes(self, tname: str, tp) -> float:
        """One shard's storage footprint (table bytes / shards); zero
        for placed tables the database does not actually hold."""
        if not self.db.catalog.has_table(tname):
            return 0.0
        return self.db.catalog.table(tname).size_bytes / tp.shards

    @staticmethod
    def _copy_endpoint(candidates, at_s: float):
        """The cheapest live endpoint for a re-replication copy:
        awake-first, then earliest-ready (stable, fleet order breaks
        ties).  Sleeping candidates are woken -- a wake may fail under
        the fault plan, falling through to the next candidate."""
        ranked = sorted(
            candidates, key=lambda n: (not n.awake, n.ready_s)
        )
        for node in ranked:
            if not node.awake:
                node.wake(at_s)
                if not node.awake:
                    continue
            return node
        return None

    def _start_re_replication(self, crashed, at_s: float) -> None:
        """Restore replication for the shards a dead node held.

        For every shard the crash pushed below its replication target,
        a live source replica streams a copy to a live node not yet
        holding the shard.  The copy is compiled-trace work
        (:func:`~repro.cluster.placement.replication_copy_trace` sized
        by the shard's storage footprint) assigned to *both* endpoints
        at crash time, so its busy windows bill joules through normal
        playback and delay queries queued behind them.  The destination
        owns the shard from the copy's start -- queries routed there
        queue behind the in-flight copy (FIFO), which models catch-up
        reads without a completion callback.  Shards with no live
        source stay under-replicated: queries for them keep retrying
        until recovery or dead-letter, never silently dropping rows.
        """
        table, durations, _views, workload_class, _shed = self._retry_ctx
        report = self._fault_report
        for key in sorted(crashed.shards or ()):
            tname, shard = key
            tp = self.placement.for_table(tname)
            if tp is None:
                continue
            holders = [
                n for n in self.nodes
                if n is not crashed and n.shards is not None
                and key in n.shards
            ]
            live = [n for n in holders if n.crashed_s is None]
            if len(live) >= tp.replicas:
                continue  # replication target still met
            source = self._copy_endpoint(
                [n for n in live if n.can_serve(at_s)], at_s
            )
            dest = self._copy_endpoint(
                [
                    n for n in self.nodes
                    if n is not crashed and n.shards is not None
                    and key not in n.shards and n.can_serve(at_s)
                ],
                at_s,
            )
            if source is None or dest is None:
                continue  # no live copy (or no room): degrade, retry
            copy_key = f"<re-replicate {tname}#{shard}>"
            if copy_key not in table:
                table[copy_key] = replication_copy_trace(
                    self._shard_bytes(tname, tp)
                )
            for endpoint in (source, dest):
                service = self._duration_for(
                    endpoint, copy_key, table, durations, workload_class
                )
                endpoint.assign(copy_key, at_s, service, ())
                report.copy_s += service
                report.copy_joules += (
                    endpoint.power_estimate().busy_wall_w * service
                )
            dest.shards.add(key)
            self._owner_gen += 1
            report.re_replications += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "re-replicate", dest.spec.name, at_s,
                    table=tname, shard=shard, source=source.spec.name,
                )
            if self.metrics is not None:
                self.metrics.counter("re_replications").inc()

    def _push_retry(self, sql: str, arrival_s: float, now_s: float,
                    attempt: int, requeue: bool) -> None:
        """Queue retry number ``attempt`` after its backoff delay.

        ``requeue=True`` marks work pulled back from a crashed node (as
        opposed to an arrival no node would take); both flow through
        the same heap and count toward ``retries``.
        """
        ready = now_s + self.retry.delay_s(attempt)
        self._retry_seq += 1
        heapq.heappush(
            self._retries, (ready, self._retry_seq, sql, arrival_s, attempt)
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "retry", MASTER_TRACK, now_s,
                parent=self.tracer.parent_of(sql, arrival_s),
                sql=sql, attempt=attempt, ready_s=ready,
            )
        if self.metrics is not None:
            self.metrics.counter("retries").inc()
        report = self._fault_report
        report.retries += 1
        if requeue:
            report.requeued += 1
        report.affected.add((sql, arrival_s))

    def _dispatch_retry(self, sql: str, arrival_s: float,
                        ready_s: float, attempt: int) -> None:
        """Re-offer one lost/refused query to the router at its ready
        time.  Retries bypass QED queues (a second queueing pass would
        double-charge latency the backoff already modeled) and keep the
        query's *original* arrival time, so its response time includes
        the whole ordeal.  A failed attempt backs off again until the
        policy dead-letters it: shed, with accounting."""
        table, durations, service_views, workload_class, shed = (
            self._retry_ctx
        )
        decision = self._route(sql, ready_s, service_views[sql])
        node = decision.node
        if node is not None and node.awake and node.can_serve(ready_s):
            service = self._duration_for(
                node, sql, table, durations, workload_class
            )
            node.assign(
                sql, decision.dispatch_s, service, ((sql, arrival_s),)
            )
            return
        if self.retry.exhausted(attempt):
            shed.append(ShedQuery(sql, arrival_s))
            self._fault_report.dead_lettered += 1
            if self.tracer.enabled:
                self.tracer.terminal(
                    "dead-letter", sql, arrival_s, ready_s,
                    attempt=attempt,
                )
            if self.metrics is not None:
                self.metrics.counter("dead_lettered").inc()
            return
        self._push_retry(sql, arrival_s, ready_s, attempt + 1,
                         requeue=False)

    def _finish_faults(self, end_of_arrivals: float) -> None:
        """Run the fault/retry machinery past the last arrival.

        Backoffs can push retries beyond the stream's end, and crashes
        can strike work still draining there; keep advancing to the
        fleet's moving activity bound (plus the earliest pending retry)
        until nothing more can fire.  Crash events beyond all activity
        never fire -- the run is over."""
        while True:
            bound = end_of_arrivals
            for node in self.nodes:
                bound = max(bound, node.busy_until)
                if node.awake:
                    bound = max(bound, node.wake_ready_s)
            if self._retries:
                bound = max(bound, self._retries[0][0])
            if not self._advance_faults(bound):
                return

    # -- QED batch serving -------------------------------------------------

    @staticmethod
    def _qed_stats_for(qed: QedReport | None,
                       partition: str) -> QedPartitionStats | None:
        if qed is None:
            return None
        stats = qed.get(partition)
        if stats is None:
            stats = QedPartitionStats(partition)
            qed.partitions.append(stats)
        return stats

    @staticmethod
    def _record_dispatch(stats: QedPartitionStats | None,
                         batch: Batch) -> None:
        if stats is None:
            return
        stats.queries += batch.size
        stats.batches += 1
        stats.max_batch = max(stats.max_batch, batch.size)

    def _run_master_loop(
        self,
        arrivals: ArrivalStream,
        end_of_arrivals: float,
        table: dict[str, CompiledTrace],
        durations: dict[CostKey, dict[str, float]],
        service_views: dict[str, "_ServiceView"],
        workload_class: str,
        shed: list[ShedQuery],
        qed: QedReport,
    ) -> None:
        """The master-queue phase: every arrival queues centrally.

        Per-partition timeouts fire between arrivals *at their expiry*
        (mirroring the per-node path), the arrival itself may trip its
        partition's threshold, and trailing partials drain once the
        stream ends.  Dispatched batches go to the queue's
        batch-placement policy instead of the per-arrival router.
        """
        self.master_queue.reset()
        placement = self.master_queue.placement
        placement.prepare(self.router, self.nodes)
        tracer = self.tracer
        metrics = self.metrics
        for sql, now in arrivals.pairs():
            if tracer.enabled:
                tracer.arrival(sql, now)
            if metrics is not None:
                self._sample_metrics_until(now)
                metrics.counter("arrivals").inc()
            if self._fault_active:
                self._advance_faults(now)
            for dispatched in self.master_queue.expired(now):
                self._place_dispatched(
                    dispatched, table, durations, service_views,
                    workload_class, shed, qed,
                )
            for dispatched in self.master_queue.submit(sql, now):
                self._place_dispatched(
                    dispatched, table, durations, service_views,
                    workload_class, shed, qed,
                )
        for dispatched in self.master_queue.drain(end_of_arrivals):
            self._place_dispatched(
                dispatched, table, durations, service_views,
                workload_class, shed, qed,
            )

    def _place_dispatched(
        self,
        dispatched: DispatchedBatch,
        table: dict[str, CompiledTrace],
        durations: dict[CostKey, dict[str, float]],
        service_views: dict[str, "_ServiceView"],
        workload_class: str,
        shed: list[ShedQuery],
        qed: QedReport,
    ) -> None:
        """Hand one master-queue batch to the placement policy."""
        batch = dispatched.batch
        stats = self._qed_stats_for(qed, dispatched.partition)
        self._record_dispatch(stats, batch)
        if self.tracer.enabled:
            self.tracer.dispatch(dispatched.partition, batch)
        if self.metrics is not None:
            self.metrics.counter("qed_batches").inc()
            self.metrics.histogram("batch_size").observe(batch.size)
        # Under a placement map the batch first splits by shard
        # signature -- each piece is servable by one replica set -- and
        # each piece is placed over its owning replicas only.  With no
        # map there is a single unconstrained group (the seed path).
        if self.placement is None:
            groups = [(batch, None)]
        else:
            groups = self._shard_groups(batch)
        for group_batch, pool in groups:
            group_merged = None
            if pool is not None and not pool:
                assignments = []  # no live node holds all its shards
            else:
                # Merged after the split, so only a piece that is
                # actually placed pays for its disjunction.
                if dispatched.mergeable and group_batch.size > 1:
                    group_merged = merge_queries(group_batch.sqls)
                assignments = self.master_queue.placement.place(
                    group_batch, group_merged, group_batch.dispatch_s,
                    service_views[group_batch.queries[0].sql],
                    self.nodes if pool is None else pool,
                )
            if not assignments:
                if self._fault_active:
                    # Unplaceable under faults (crashes/failed wakes,
                    # under-replicated shards): each query re-enters
                    # through the retry policy instead of being
                    # silently shed.
                    for q in group_batch.queries:
                        self._push_retry(
                            q.sql, q.arrival_s, group_batch.dispatch_s,
                            1, requeue=False,
                        )
                else:
                    shed.extend(
                        ShedQuery(q.sql, q.arrival_s)
                        for q in group_batch.queries
                    )
                continue
            for node, queries in assignments:
                shard = (
                    group_batch if len(queries) == group_batch.size
                    else Batch(list(queries), group_batch.dispatch_s)
                )
                self._schedule_batch(
                    node, shard, table, durations, workload_class,
                    stats=stats,
                    merged=(
                        group_merged if shard is group_batch else None
                    ),
                )

    def _pool_for_shards(self, required) -> list[SimulatedNode] | None:
        """Nodes holding every ``(table, shard)`` in ``required``; None
        when unconstrained (no placed table, or every node holds them
        all)."""
        if required is None:
            return None
        pool = [
            n for n in self.nodes
            if n.shards is not None and required <= n.shards
        ]
        if len(pool) == len(self.nodes):
            return None
        return pool

    def _shard_groups(self, batch: Batch):
        """Split one dispatched batch by shard signature.

        Queries sharing a signature stay one (still mergeable) piece;
        a single-signature batch passes through whole.  Returns
        ``[(batch, pool), ...]`` where ``pool`` is the piece's eligible
        replica set (None = unconstrained).
        """
        buckets: dict = {}
        for q in batch.queries:
            buckets.setdefault(
                self.placement.required_shards(q.sql), []
            ).append(q)
        if len(buckets) == 1:
            (key,) = buckets
            return [(batch, self._pool_for_shards(key))]
        return [
            (Batch(queries, batch.dispatch_s), self._pool_for_shards(key))
            for key, queries in buckets.items()
        ]

    def _dispatch_node_batch(
        self,
        node: SimulatedNode,
        batch: Batch,
        table: dict[str, CompiledTrace],
        durations: dict[CostKey, dict[str, float]],
        workload_class: str,
        qed: QedReport | None,
    ) -> None:
        """Serve one per-node queue dispatch (stats keyed by node)."""
        stats = self._qed_stats_for(qed, f"node:{node.spec.name}")
        self._record_dispatch(stats, batch)
        if self.tracer.enabled:
            self.tracer.dispatch(f"node:{node.spec.name}", batch)
        if self.metrics is not None:
            self.metrics.counter("qed_batches").inc()
            self.metrics.histogram("batch_size").observe(batch.size)
        self._schedule_batch(
            node, batch, table, durations, workload_class, stats=stats,
        )

    def _assign_singletons(
        self,
        node: SimulatedNode,
        queries: tuple[QueuedQuery, ...] | list[QueuedQuery],
        dispatch_s: float,
        table: dict[str, CompiledTrace],
        durations: dict[CostKey, dict[str, float]],
        workload_class: str,
    ) -> None:
        """Serve queries back-to-back as plain single executions.

        Each query reuses the per-query compiled trace already in
        ``table`` -- nothing is rendered, executed or compiled -- and
        its pre-costed duration under the node's current setting
        (costed on demand for settings the pre-pass could not know
        about).
        """
        for query in queries:
            service = self._duration_for(
                node, query.sql, table, durations, workload_class
            )
            node.assign(
                query.sql, dispatch_s, service,
                ((query.sql, query.arrival_s),),
            )

    @staticmethod
    def _duration_for(
        node: SimulatedNode,
        key: str,
        table: dict[str, CompiledTrace],
        durations: dict[CostKey, dict[str, float]],
        workload_class: str,
    ) -> float:
        """``key``'s service time under the node's *current* setting.

        Served from the pre-costed table when possible; costed on
        demand (and memoized) for trace keys or settings the pre-pass
        could not know about -- merged-batch SQL, retuned nodes.
        """
        per_key = durations.setdefault((node.spec.hw, node.setting), {})
        if key not in per_key:
            original = node.sut.setting
            node.sut.apply_setting(node.setting)
            try:
                per_key[key] = node.sut.run_compiled(
                    table[key], workload_class
                ).duration_s
            finally:
                node.sut.apply_setting(original)
        return per_key[key]

    def _schedule_batch(
        self,
        node: SimulatedNode,
        batch: Batch,
        table: dict[str, CompiledTrace],
        durations: dict[CostKey, dict[str, float]],
        workload_class: str,
        stats: QedPartitionStats | None = None,
        merged=None,
    ) -> None:
        """Serve a dispatched QED batch as one merged execution.

        The batch becomes a single disjunctive query plus the
        client-side split work (built by the same
        :func:`~repro.core.qed.executor.merged_batch_execution` helper
        the QED experiment uses), and every query in the batch completes
        when the merged window does.

        Two degradations keep the schedule alive and cheap: a size-1
        batch bypasses merging entirely (its per-query trace is already
        in ``table``; a "merged" singleton would execute and compile
        the same work a second time under another key), and a batch the
        aggregator rejects (mixed templates routed to one queue) is
        served as back-to-back singleton executions instead of crashing
        the whole ``schedule()``.

        A merged statement's trace is built once per ``schedule()``
        (``table``, keyed by the merged SQL) and once per runner across
        schedules (:func:`~repro.core.qed.executor.merged_batch_trace`).
        """
        if batch.size == 1:
            self._assign_singletons(
                node, batch.queries, batch.dispatch_s, table,
                durations, workload_class,
            )
            if stats is not None:
                stats.singleton_windows += 1
            return
        if merged is None:
            try:
                merged = merge_queries(batch.sqls)
            except NotMergeableError:
                self._assign_singletons(
                    node, batch.queries, batch.dispatch_s, table,
                    durations, workload_class,
                )
                if stats is not None:
                    stats.fallback_batches += 1
                    stats.singleton_windows += batch.size
                return
        key = merged.sql
        if key not in table:
            table[key] = merged_batch_trace(self.runner, merged)
        service = self._duration_for(
            node, key, table, durations, workload_class
        )
        work = node.assign(
            key, batch.dispatch_s, service,
            tuple((q.sql, q.arrival_s) for q in batch.queries),
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "merge", node.spec.name, work.start_s, size=batch.size,
            )
        if stats is not None:
            stats.merged_windows += 1

    def _peak_model_power_w(self, horizon_s: float) -> float:
        """Peak fleet power under the linear per-node envelope.

        The same model the power-cap router schedules against: awake
        nodes draw idle watts (wake transitions included), busy windows
        add ``busy - idle``, sleeping nodes draw their sleep watts.
        Every sleep-to-wake and awake-to-sleep transition (dynamic
        re-consolidation can produce many per node) becomes a power
        step event.
        """
        power = 0.0
        events: list[tuple[float, float]] = []
        for node in self.nodes:
            est = node.power_estimate()
            sleep_step = est.idle_wall_w - node.spec.sleep_wall_w
            if node.started_awake:
                power += est.idle_wall_w
            else:
                power += node.spec.sleep_wall_w
            for called, _ready in node.wake_log:
                events.append((called, sleep_step))
            for start, _end in node.sleep_log:
                if start > 0.0:
                    events.append((start, -sleep_step))
            delta = est.busy_wall_w - est.idle_wall_w
            for work in node.scheduled:
                events.append((work.start_s, delta))
                events.append((work.end_s, -delta))
        events.sort(key=lambda e: (e[0], e[1]))
        peak = power
        for _, d in events:
            power += d
            peak = max(peak, power)
        return peak

    # -- phase 2: playback -------------------------------------------------

    def playback(self, schedule: ClusterSchedule) -> ClusterMeasurement:
        """Turn scheduled timelines into energy.

        The two schedule shapes differ only in how node energies are
        costed and where the busy windows and served queries are read
        from -- a vectorized schedule's own arrays (no per-query object
        is ever materialized), or the loop schedule's stacked pieces
        and windows, one response row per query a window answers.  Both
        compose the same measurement from there.
        """
        nodes = schedule.nodes
        names = [node.spec.name for node in nodes]
        col = schedule.columnar
        if col is not None:
            measurements = play_columnar(
                nodes, col, schedule.horizon_s, schedule.workload_class
            )
            busy = [
                (col.start_s[rows], col.end_s[rows])
                for rows in map(col.rows_for, range(len(nodes)))
            ]
            busy_s = [float((ends - starts).sum()) for starts, ends in busy]
            responses = ResponseColumns.in_arrival_order(
                col.distinct, names, col.sql_idx, col.node_idx,
                col.arrival_s, col.start_s, col.end_s,
            )
        else:
            measurements = play_batched(
                nodes, schedule.pieces_by_node,
                schedule.workload_class, schedule.settings_by_node,
            )
            busy = [
                span_columns([(w.start_s, w.end_s) for w in node.scheduled])
                for node in nodes
            ]
            busy_s = [node.busy_s for node in nodes]
            code: dict[str, int] = {}
            sql_idx, node_idx, arrival_s, start_s, end_s = (
                [], [], [], [], []
            )
            for j, node in enumerate(nodes):
                for work in node.scheduled:
                    for sql, arrived_s in work.queries:
                        sql_idx.append(code.setdefault(sql, len(code)))
                        node_idx.append(j)
                        arrival_s.append(arrived_s)
                        start_s.append(work.start_s)
                        end_s.append(work.end_s)
            responses = ResponseColumns.in_arrival_order(
                code, names, sql_idx, node_idx, arrival_s, start_s, end_s
            )
        queries = np.bincount(responses.node_idx, minlength=len(nodes))
        usages: list[NodeUsage] = []
        for j, node in enumerate(nodes):
            sleep_s = node.sleep_s(schedule.horizon_s)
            envelope = node.power_estimate()
            usages.append(NodeUsage(
                name=names[j],
                queries=int(queries[j]),
                busy_s=busy_s[j],
                wake_s=node.wake_s,
                sleep_s=sleep_s,
                horizon_s=schedule.horizon_s,
                playback=measurements[names[j]],
                sleep_joules=node.spec.sleep_wall_w * sleep_s,
                re_sleeps=node.re_sleeps,
                busy_columns=busy[j],
                sleep_spans=tuple(node.sleep_spans(schedule.horizon_s)),
                wake_spans=tuple(node.wake_log),
                idle_wall_w=envelope.idle_wall_w,
                busy_wall_w=envelope.busy_wall_w,
                sleep_wall_w=node.spec.sleep_wall_w,
            ))
        return ClusterMeasurement(
            horizon_s=schedule.horizon_s,
            nodes=usages,
            response_columns=responses,
            shed=list(schedule.shed),
            peak_power_w=schedule.peak_power_w,
            cap_w=schedule.cap_w,
            qed=schedule.qed,
            faults=schedule.faults,
            run_id=schedule.run_id,
            fingerprint=schedule.fingerprint,
        )

    def run(self, arrivals: Iterable[Arrival],
            vectorized: bool | None = None) -> ClusterMeasurement:
        """Schedule and play an arrival stream end to end."""
        return self.playback(self.schedule(arrivals, vectorized=vectorized))
