"""Discrete-event cluster simulation over one schedule table.

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
   ``run_compiled_batch`` call on that pair's machine -- including every
   ladder setting an adaptive router may apply; any other setting is
   costed when first asked for -- then place the arrivals: the chunked
   vectorized engine when
   :meth:`~ClusterSimulator.vectorized_ineligibility` names no reason,
   otherwise the event loop in pure Python over floats (the stream's
   sorted arrival column merged with one ``(time, rank, seq)`` heap of
   metric samples, crashes/recoveries, retries and QED timeouts).  Either engine
   produces a :class:`ClusterSchedule` around one
   :class:`~repro.cluster.playback.ScheduleTable` of busy windows; a
   loop run also keeps every node's timeline as rows
   (:class:`~repro.cluster.playback.LoopTimeline`).
2. :meth:`ClusterSimulator.playback` -- cost a vectorized run by
   counting (:func:`~repro.cluster.playback.play_table`) or play a loop
   run's timeline rows, gathered once from the traces, with one stacked
   array call per distinct (hw, setting) pair
   (:func:`~repro.cluster.playback.play_timeline`), and compose the
   :class:`~repro.cluster.measure.ClusterMeasurement` from the table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.cluster.master_queue import MasterQueue
from repro.cluster.measure import (
    ClusterMeasurement,
    FaultReport,
    NodeUsage,
    QedPartitionStats,
    QedReport,
    ShedQuery,
)
from repro.cluster.node import (
    NodeSpec,
    SimulatedNode,
    SUT_FACTORIES,
    TimelineAccounting,
)
from repro.cluster.placement import PlacementMap, replication_copy_trace
from repro.cluster.playback import (
    LoopTimeline,
    ScheduleTable,
    loop_timeline,
    play_table,
    play_timeline,
    window_table,
)
from repro.cluster.routing import (
    AdaptivePvcRouter,
    ConsolidatePlacement,
    ConsolidateRouter,
    Decision,
    Router,
    Service,
    first_serviceable,
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
from repro.workloads.runner import TraceCache, WorkloadRunner

#: Key under which a query's duration is pre-costed: the node's
#: hardware profile plus the PVC setting it currently holds.
CostKey = tuple[str, PvcSetting]

#: Event ranks in the loop's one ``(time, rank, seq)`` heap.  At one
#: instant a sample reads the state before anything moves, a crash or
#: recovery lands before the retries it affects, a retry before a QED
#: timeout, and every timeout before the arrival -- which is read off
#: the stream's sorted column and never pushed.
SAMPLE, FAULT, RETRY, EXPIRY = range(4)


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
class ClusterSchedule:
    """The scheduling outcome: who runs what, when, on which node.

    Both engines write ``windows``, the schedule table; ``table`` holds
    the compiled traces its trace codes name, in code order, and
    ``arrivals`` the time-ordered stream the run worked on, whose
    indices name its queries.  A
    vectorized run keeps ``measured``, the pre-costed measurement of
    every distinct statement per ``(hw, setting)`` pair; a loop run
    keeps ``timeline``, every node's awake timeline as rows.
    """

    nodes: list[NodeTimeline]
    table: dict[str, CompiledTrace]
    windows: ScheduleTable
    horizon_s: float
    shed: list[ShedQuery]
    peak_power_w: float
    cap_w: float | None
    workload_class: str
    arrivals: ArrivalStream
    measured: dict[CostKey, list] | None = None
    timeline: LoopTimeline | None = None
    qed: QedReport | None = None
    faults: FaultReport | None = None
    run_id: str | None = None
    fingerprint: dict | None = None

    @property
    def engine(self) -> str:
        """``"loop"`` when the schedule carries a timeline,
        ``"vectorized"`` otherwise."""
        return "vectorized" if self.timeline is None else "loop"

    @property
    def scheduled_pieces(self) -> int:
        """Busy windows, plus -- on a loop run -- the idle, wake and
        straggler rows of its timeline."""
        if self.timeline is None:
            return len(self.windows)
        return len(self.timeline)


class ClusterSimulator:
    """Serve an arrival stream across a simulated fleet.

    Every statement is costed on the one machine of its ``(hw,
    setting)`` pair (:meth:`machine`): the spec's hardware profile,
    resolved through :data:`~repro.cluster.node.SUT_FACTORIES`, with the
    setting applied once.  Nodes of one pair share that machine, so
    they are playback-equivalent -- the property batched playback
    exploits.  Without a ``placement`` map the shared database models fully
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
        trace_cache: TraceCache | None = None,
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
        for spec in specs:
            if spec.hw not in SUT_FACTORIES:
                raise ValueError(
                    f"node {spec.name!r} references unknown hardware "
                    f"profile {spec.hw!r}; known: {sorted(SUT_FACTORIES)}"
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
        self.runner = WorkloadRunner(
            db, SUT_FACTORIES[specs[0].hw](), trace_cache=trace_cache,
        )
        self.machines: dict[CostKey, SystemUnderTest] = {}
        #: Each (hw, setting) pair's index (``node.pair``).
        self.pairs: dict[CostKey, int] = {}
        self.nodes = [
            SimulatedNode(spec, self.machine((spec.hw, spec.setting)))
            for spec in specs
        ]

    def machine(self, pair: CostKey) -> SystemUnderTest:
        """The machine that costs everything run under ``pair``: built
        on first use with the pair's setting applied, never retuned."""
        sut = self.machines.get(pair)
        if sut is None:
            hw, setting = pair
            sut = self.machines[pair] = SUT_FACTORIES[hw]()
            sut.apply_setting(setting)
        return sut

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
        for pair in self._cost_keys():
            batch = self.machine(pair).run_compiled_batch(
                [table[sql] for sql in distinct], workload_class
            )
            durations[pair] = {
                sql: m.duration_s for sql, m in zip(distinct, batch)
            }
            costed[pair] = batch
        return durations, costed

    def vectorized_ineligibility(self) -> str | None:
        """Why this configuration cannot take the vectorized fast path
        (``None`` when it can).

        The chunked form can only express stateless-over-arrivals
        routing on an always-awake fleet: no QED queues (master or
        per-node), no fault/retry interleaving, no tracing or metrics
        hooks (both sample per arrival), and a router that implements
        ``route_chunk`` (every ``route_chunk`` takes the placement
        map's eligibility mask).
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
        return None

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
            # ``describe_policy(router)`` and shift the run fingerprint
            # of placement-free runs.
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
        pool = self._pool_for_shards(self.placement.required_shards(sql))
        self._eligible_cache[sql] = (self._owner_gen, pool)
        return pool

    def _route(self, sql: str, now_s: float, service: Service) -> Decision:
        """Route one arrival through the placement constraint.

        The router sees only the eligible replica set (in fleet order,
        so tie-breaks match the vectorized mask form); a statement no
        live combination of nodes can serve degrades to a refusal --
        the caller's retry/shed policy takes over, rows are never
        silently dropped.
        """
        pool = self._eligible_nodes(sql)
        if pool is None:
            return self.router.route(sql, now_s, service, self.nodes)
        if not pool:
            return Decision(None, now_s)
        return self.router.route(sql, now_s, service, pool)

    def _eligibility_mask(self, distinct: list[str]) -> np.ndarray | None:
        """The ``(distinct, nodes)`` bool mask for masked route_chunk,
        or None when no statement is actually constrained."""
        rows = np.ones((len(distinct), len(self.nodes)), dtype=bool)
        constrained = False
        for d, sql in enumerate(distinct):
            pool = self._eligible_nodes(sql)
            if pool is not None:
                rows[d] = [node in pool for node in self.nodes]
                constrained = True
        return rows if constrained else None

    def schedule(self, arrivals: Iterable[Arrival],
                 vectorized: bool | None = None) -> ClusterSchedule:
        """Route every arrival; returns the fleet's scheduled timelines.

        ``arrivals`` is an :class:`ArrivalStream` (anything else is
        coerced and validated once, here); both engines work on its
        columns, time-sorted only when they are not already.

        ``vectorized=None`` (the default) takes exactly the engine
        :meth:`vectorized_ineligibility` names: the chunked fast path
        when it gives no reason, the exact per-arrival loop otherwise;
        ``False`` forces the loop (the oracle for identity tests, and
        the only form with per-piece timelines); ``True`` demands the
        fast path and raises when the configuration cannot take it.
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
        if use_fast:
            return self._schedule_vectorized(
                arrivals, workload_class, fingerprint, run_id
            )
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin_run(
                {"run_id": run_id, "fingerprint": fingerprint}
            )
        # The run's one event heap (ARCHITECTURE "Event order"):
        # ``(time, rank, seq, ...)`` entries, popped in between the
        # arrivals read straight off the stream's sorted column.
        self._events: list = []
        self._seq = 0
        metrics = self.metrics
        if metrics is not None:
            metrics.begin_run(run_id)
            self._push(0.0, SAMPLE)

        table = self._table = self._execute_once_table(distinct)
        durations, _costed = self._precost(table, workload_class)
        # Service times by pair index, then trace key.
        self._durations = {
            self.pairs.setdefault(pair, len(self.pairs)): per
            for pair, per in durations.items()
        }
        self._workload_class = workload_class
        # One service-time callable per distinct statement, shared by
        # its arrivals; routers only call it.
        services = self._services = {
            sql: self._service(sql) for sql in distinct
        }

        # Fault layer: install the plan on every node *before* the
        # router's prepare (node resets preserve it), seed the run's
        # fault RNG, and push the crash events.  With no plan -- or an
        # empty one -- none of the hooks below run and the event loop
        # is byte-identical to the fault-free simulator.
        plan = self.faults
        active = plan is not None and not plan.empty
        shed: list[int] = []
        self._shed = shed
        report = FaultReport() if active else None
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
            for node in self.nodes:
                for spec in plan.crashes_for(node.spec.name):
                    self._push(spec.at_s, FAULT, "crash", node, spec)

        self.router.prepare(self.nodes)
        # QED queues, indexed by the order their same-instant expiries
        # fire in: master partitions by creation, node queues by fleet.
        master = self.master_queue
        qed: QedReport | None = None
        if master is not None:
            master.reset(distinct)
            master.placement.prepare(self.router, self.nodes)
            self._queues = master.queues
            qed = QedReport(mode="master")
        else:
            self._queues = [node.queue for node in self.nodes]
            fleet_order = {n.spec.name: j for j, n in enumerate(self.nodes)}
            if any(queue is not None for queue in self._queues):
                qed = QedReport(mode="node")
        self._qed = qed
        # A query is its arrival's index ``i`` in the stream from here to
        # its terminal; its statement code, statement and time are these.
        codes = self._codes = arrivals.sql_idx.tolist()
        sqls = self._sqls = list(map(arrivals.distinct.__getitem__, codes))
        times = arrivals.times.tolist()
        #: Each merged batch's statement, by its members' codes.
        self._merges: dict = {}
        for i, now in enumerate(times):
            sql = sqls[i]
            if tracing:
                tracer.arrival(sql, now)
            self._fire_until(now)
            if metrics is not None:
                metrics.counter("arrivals").inc()
            if master is not None:
                # Every arrival queues centrally; dispatched batches go
                # to the queue's batch-placement policy, not the router.
                order = master.partition(codes[i])
                if order is None:  # leaves at once, alone
                    self._place_dispatched(
                        None, Batch([QueuedQuery(sql, now, i)], now)
                    )
                else:
                    self._enqueue(order, sql, now, i)
                continue
            service = services[sql]
            decision = self._route(sql, now, service)
            if decision.node is None:
                if active:
                    # No serviceable node right now; the retry
                    # policy re-offers the query after backoff.
                    self._push_retry(i, now, 1, requeue=False)
                else:
                    shed.append(i)
                continue
            node = decision.node
            if node.queue is not None:
                self._enqueue(fleet_order[node.spec.name], sql, now, i)
                continue
            if tracing and decision.dispatch_s - now > 1e-12:
                # Admission delay (power-cap headroom wait).
                tracer.span(
                    "queue-wait", MASTER_TRACK, now, decision.dispatch_s,
                    parent=tracer.arrival_span(i), sql=sql,
                )
            node.assign(sql, decision.dispatch_s, service(node), (i,))

        end_of_arrivals = float(arrivals.times[-1]) if len(arrivals) else 0.0
        self._fire_after(end_of_arrivals)
        horizon = self._activity_bound(end_of_arrivals)
        if active:
            report.failed_wakes = sum(
                len(n.failed_wakes) for n in self.nodes
            )

        if tracing:
            # Timeline spans are emitted post-hoc from the node logs --
            # the hot loop never touches the tracer for them.  Every
            # served query gets its terminal here; under an active
            # fault plan the shed list is exactly the dead-letter set
            # (terminals already emitted at dead-letter time), so the
            # shed pass below covers fault-free refusals only.
            for node in self.nodes:
                tracer.node_log(
                    node.spec.name, node.failed_wakes, node.wake_log,
                    node.sleep_spans(horizon), node.scheduled,
                )
            if not active:
                for i in shed:
                    tracer.terminal("shed", i, times[i])
            tracer.finish(horizon)
        if metrics is not None:
            # Past the last arrival the tail samples for as long as
            # work is pending, but a retry can still dead-letter and
            # leave the run shorter; its series ends at its horizon.
            metrics.truncate(horizon + 1e-12)
            response = metrics.histogram("response_s")
            for node in self.nodes:
                for work in node.scheduled:
                    for i in work.queries:
                        response.observe(work.end_s - times[i])

        nodes = [NodeTimeline.snapshot(n) for n in self.nodes]
        windows = window_table(nodes, table)
        return ClusterSchedule(
            nodes=nodes,
            table=table,
            windows=windows,
            timeline=loop_timeline(nodes, windows, horizon),
            horizon_s=horizon,
            shed=[ShedQuery(sqls[i], times[i], i) for i in shed],
            peak_power_w=self._peak_model_power_w(windows),
            cap_w=getattr(self.router, "cap_w", None),
            workload_class=workload_class,
            arrivals=arrivals,
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
        seconds-scale run.  An empty stream is the zero run.
        """
        distinct = list(arrivals.distinct)
        table = self._execute_once_table(distinct)
        durations, costed = self._precost(table, workload_class)
        self.router.prepare(self.nodes)

        n_nodes = len(self.nodes)
        times, sql_idx = arrivals.times, arrivals.sql_idx
        service = np.empty((len(distinct), n_nodes), dtype=np.float64)
        for j, node in enumerate(self.nodes):
            per = durations[(node.spec.hw, node.spec.setting)]
            service[:, j] = [per[sql] for sql in distinct]

        # Placement constraint as a per-template eligibility mask; None
        # when no template is constrained, keeping the unconstrained
        # call shape (and its floats) bit-identical to the seed path.
        mask = self._eligibility_mask(distinct)
        route_kwargs = {} if mask is None else {"eligible": mask}
        end_of_arrivals = float(times[-1]) if len(times) else 0.0
        shed: list[ShedQuery] = []
        served = None  # every arrival
        servable = None if mask is None else mask.any(axis=1)
        if servable is not None and not servable.all():
            # A statement no node holds every shard of is shed, in
            # arrival order, before routing -- as the loop refuses it.
            kept = servable[sql_idx]
            refused = np.flatnonzero(~kept)
            shed = [
                ShedQuery(distinct[code], arrival_s, i)
                for i, code, arrival_s in zip(
                    refused.tolist(), sql_idx[refused].tolist(),
                    times[refused].tolist(),
                )
            ]
            served = np.flatnonzero(kept)
            times, sql_idx = times[served], sql_idx[served]

        n = len(times)
        node_idx = np.empty(n, dtype=np.int64)
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        for lo in range(0, n, self.SCHEDULE_CHUNK):
            hi = min(lo + self.SCHEDULE_CHUNK, n)
            idx, st, en = self.router.route_chunk(
                times[lo:hi], sql_idx[lo:hi], service, distinct,
                self.nodes, **route_kwargs,
            )
            node_idx[lo:hi] = idx
            starts[lo:hi] = st
            ends[lo:hi] = en

        # Statement codes are trace codes (the table lists the distinct
        # statements first), every window answers the query that
        # arrived with it, and no node is retuned or stretched: the
        # routing outcome is the whole table.
        windows = ScheduleTable(
            node_idx=node_idx, trace_idx=sql_idx, start_s=starts,
            end_s=ends, query_idx=served,
        )
        return ClusterSchedule(
            nodes=[NodeTimeline.snapshot(node) for node in self.nodes],
            table=table,
            windows=windows,
            measured=costed,
            horizon_s=float(ends.max(initial=end_of_arrivals)),
            shed=shed,
            peak_power_w=self._peak_model_power_w(windows),
            cap_w=getattr(self.router, "cap_w", None),
            workload_class=workload_class,
            arrivals=arrivals,
            run_id=run_id,
            fingerprint=fingerprint,
        )

    # -- the event heap ----------------------------------------------------

    def _push(self, t_s: float, rank: int, *payload) -> None:
        """Schedule a sample, fault or retry event (one seq for all)."""
        self._seq += 1
        heapq.heappush(self._events, (t_s, rank, self._seq, *payload))

    def _fire_until(self, now_s: float) -> None:
        """Fire, in heap order, every event before an arrival at
        ``now_s``: samples, faults and retries up to ``now_s + 1e-12``,
        expiries up to ``now_s`` itself."""
        events = self._events
        while events:
            t_s, rank = events[0][0], events[0][1]
            if t_s > now_s + 1e-12 or (rank == EXPIRY and t_s > now_s):
                return
            self._fire(heapq.heappop(events))

    def _fire_after(self, end_s: float) -> None:
        """Run the heap on past the last arrival (at ``end_s``).

        Queues no timeout will fire drain at ``end_s``.  Then events
        fire in order while the run is still active: a retry or live
        expiry always (it is pending work), a sample, crash or recovery
        only up to the fleet's moving activity bound or ahead of
        pending work.  Crashes beyond all activity never fire -- the
        run is over.
        """
        for order, queue in enumerate(self._queues):
            if queue is not None and queue.expiry_s is None:
                batch = queue.drain(end_s)
                if batch is not None:
                    self._dispatch_queue(order, batch)
        events = self._events
        bound = end_s
        while events:
            t_s, rank = events[0][0], events[0][1]
            if rank < RETRY and t_s > bound + 1e-12:
                bound = self._activity_bound(end_s)
                if t_s > bound + 1e-12 and not any(
                    event[1] == RETRY or self._live_expiry(event)
                    for event in events
                ):
                    return
            self._fire(heapq.heappop(events))

    def _live_expiry(self, event: tuple) -> bool:
        """An expiry whose batch is still queued.  One goes stale when
        the batch it timed already left (threshold, crash) or a later
        batch re-armed the queue."""
        return (event[1] == EXPIRY
                and self._queues[event[2]].expiry_s == event[0])  # repro: noqa[FLOAT-EQ]: the event was keyed by this very expiry value

    def _fire(self, event: tuple) -> None:
        t_s, rank = event[0], event[1]
        if rank == EXPIRY:
            # flush, not tick: float noise in the expiry must not
            # strand a batch.
            if self._live_expiry(event):
                order = event[2]
                self._dispatch_queue(order, self._queues[order].flush(t_s))
        elif rank == RETRY:
            self._dispatch_retry(event[3], t_s, event[4])
        elif rank == FAULT:
            self._fire_fault_event(t_s, *event[3:])
        elif self.metrics is not None:  # SAMPLE, pushed with a registry
            self._sample_metrics(t_s)

    def _activity_bound(self, end_s: float) -> float:
        """The last instant anything scheduled so far is still going
        on: the last arrival, every node's backlog, and the wake
        transition of every awake node (the run's horizon, once the
        heap is done)."""
        bound = end_s
        for node in self.nodes:
            bound = max(bound, node.busy_until)
            if node.awake:
                bound = max(bound, node.wake_ready_s)
        return bound

    # -- streaming metrics -------------------------------------------------

    def _sample_metrics(self, t_s: float) -> None:
        """Read the live fleet state into the gauges, snapshot, and
        schedule the next window boundary (the same ``k * window_s``
        tiling ``window_report`` slices on)."""
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
        if self._fault_report is not None:
            backlog = sum(1 for event in self._events if event[1] == RETRY)
            reg.gauge("retry_backlog").set(float(backlog))
        reg.sample(t_s)
        # The next boundary from the sample count, not ``t_s +
        # window_s``: an accumulated sum drifts off the tiling.
        self._push(len(reg.samples) * reg.window_s, SAMPLE)

    # -- fault injection & recovery ---------------------------------------

    def _fire_fault_event(self, at_s: float, kind: str, node, spec) -> None:
        """Apply one crash/recover event."""
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
        for i in lost:
            self._push_retry(i, at_s, 1, requeue=True)
        if self.placement is not None:
            self._start_re_replication(node, at_s)
        if spec.recover_s is not None:
            self._push(spec.recover_s, FAULT, "recover", node, spec)

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
        ties), through :func:`first_serviceable`: unserviceable
        candidates are skipped, sleeping ones woken, and a failed wake
        falls through to the next one."""
        ranked = sorted(
            candidates, key=lambda n: (not n.awake, n.ready_s)
        )
        return first_serviceable(ranked, at_s)[1]

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
        table = self._table
        report = self._fault_report
        for key in sorted(crashed.shards or ()):
            tname, shard = key
            tp = self.placement.for_table(tname)
            if tp is None:
                continue
            live = [
                n for n in self.nodes
                if n.crashed_s is None and key in (n.shards or ())
            ]
            if len(live) >= tp.replicas:
                continue  # replication target still met
            source = self._copy_endpoint(live, at_s)
            dest = self._copy_endpoint(
                [
                    n for n in self.nodes
                    if n is not crashed and n.shards is not None
                    and key not in n.shards
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
                service = self._duration_for(endpoint, copy_key)
                endpoint.assign(copy_key, at_s, service, ())
                report.copy_s += service
                report.copy_joules += (
                    endpoint.power_estimate().busy_wall_w * service
                )
            dest.shards.add(key)
            if dest.quorum is not None:
                dest.quorum.hold(dest, key)
            self._owner_gen += 1
            report.re_replications += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "re-replicate", dest.spec.name, at_s,
                    table=tname, shard=shard, source=source.spec.name,
                )
            if self.metrics is not None:
                self.metrics.counter("re_replications").inc()

    def _push_retry(self, query: int, now_s: float, attempt: int,
                    requeue: bool) -> None:
        """Queue retry number ``attempt`` of query ``query`` (its stream
        index) after its backoff delay.

        ``requeue=True`` marks work pulled back from a crashed node (as
        opposed to an arrival no node would take); both flow through
        the same heap and count toward ``retries``.
        """
        ready = now_s + self.retry.delay_s(attempt)
        self._push(ready, RETRY, query, attempt)
        if self.tracer.enabled:
            self.tracer.instant(
                "retry", MASTER_TRACK, now_s,
                parent=self.tracer.arrival_span(query),
                sql=self._sqls[query], attempt=attempt, ready_s=ready,
            )
        if self.metrics is not None:
            self.metrics.counter("retries").inc()
        report = self._fault_report
        report.retries += 1
        if requeue:
            report.requeued += 1
        report.affected.add(query)

    def _dispatch_retry(self, query: int, ready_s: float,
                        attempt: int) -> None:
        """Re-offer one lost/refused query to the router at its ready
        time.  Retries bypass QED queues (a second queueing pass would
        double-charge latency the backoff already modeled) and keep the
        query's *original* arrival time, so its response time includes
        the whole ordeal.  A failed attempt backs off again until the
        policy dead-letters it: shed, with accounting."""
        sql = self._sqls[query]
        service = self._services[sql]
        decision = self._route(sql, ready_s, service)
        node = decision.node
        if node is not None and node.awake and node.can_serve(ready_s):
            node.assign(sql, decision.dispatch_s, service(node), (query,))
            return
        if self.retry.exhausted(attempt):
            self._shed.append(query)
            self._fault_report.dead_lettered += 1
            if self.tracer.enabled:
                self.tracer.terminal(
                    "dead-letter", query, ready_s, attempt=attempt,
                )
            if self.metrics is not None:
                self.metrics.counter("dead_lettered").inc()
            return
        self._push_retry(query, ready_s, attempt + 1, requeue=False)

    # -- QED batch serving -------------------------------------------------

    def _enqueue(self, order: int, sql: str, now_s: float,
                 query: int) -> None:
        """Queue arrival ``query`` on QED queue ``order``.  A batch the
        policy fires leaves now; an arrival that opens a batch pushes
        that batch's timeout as an expiry event, keyed by the queue's
        order so same-instant expiries fire in it."""
        queue = self._queues[order]
        batch = queue.submit(sql, now_s, query)
        if batch is not None:
            self._dispatch_queue(order, batch)
        elif len(queue) == 1 and queue.expiry_s is not None:
            heapq.heappush(self._events, (queue.expiry_s, EXPIRY, order))

    def _dispatch_queue(self, order: int, batch: Batch) -> None:
        """Serve a batch QED queue ``order`` released: a master
        partition's goes to the batch-placement policy, a node queue's
        runs on its node."""
        if self.master_queue is not None:
            self._place_dispatched(order, batch)
            return
        node = self.nodes[order]
        stats = self._record_dispatch(f"node:{node.spec.name}", batch)
        self._schedule_batch(node, batch, stats)

    def _record_dispatch(self, partition: str,
                         batch: Batch) -> QedPartitionStats:
        """Count one QED dispatch in its partition's stats (returned),
        the trace and the metrics."""
        if self.tracer.enabled:
            self.tracer.dispatch(partition, batch)
        if self.metrics is not None:
            self.metrics.counter("qed_batches").inc()
            self.metrics.histogram("batch_size").observe(batch.size)
        stats = self._qed.get(partition)
        if stats is None:
            stats = QedPartitionStats(partition)
            self._qed.partitions.append(stats)
        stats.queries += batch.size
        stats.batches += 1
        stats.max_batch = max(stats.max_batch, batch.size)
        return stats

    def _place_dispatched(self, order: int | None, batch: Batch) -> None:
        """Hand one batch of master partition ``order`` (None: a
        pass-through singleton) to the placement policy."""
        stats = self._record_dispatch(self.master_queue.label(order), batch)
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
                if order is not None and group_batch.size > 1:
                    group_merged = self._merged(group_batch)
                assignments = self.master_queue.placement.place(
                    group_batch, group_merged, group_batch.dispatch_s,
                    self._services[group_batch.queries[0].sql],
                    self.nodes if pool is None else pool,
                )
            if not assignments:
                if self._fault_report is not None:
                    # Unplaceable under faults (crashes/failed wakes,
                    # under-replicated shards): each query re-enters
                    # through the retry policy instead of being
                    # silently shed.
                    for q in group_batch.queries:
                        self._push_retry(q.query_id, group_batch.dispatch_s,
                                         1, requeue=False)
                else:
                    self._shed.extend(q.query_id for q in group_batch.queries)
                continue
            for node, queries in assignments:
                shard = (
                    group_batch if len(queries) == group_batch.size
                    else Batch(list(queries), group_batch.dispatch_s)
                )
                self._schedule_batch(node, shard, stats)

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

    def _assign_singletons(
        self,
        node: SimulatedNode,
        queries: list[QueuedQuery],
        dispatch_s: float,
    ) -> None:
        """Serve queries back-to-back as plain single executions.

        Each query reuses the per-query compiled trace already in
        ``table`` -- nothing is rendered, executed or compiled -- and
        its pre-costed duration under the node's current setting
        (costed on demand for settings the pre-pass could not know
        about).
        """
        for query in queries:
            node.assign(
                query.sql, dispatch_s, self._duration_for(node, query.sql),
                (query.query_id,),
            )

    def _duration_for(self, node: SimulatedNode, key: str) -> float:
        """``key``'s service time under the node's *current* setting.

        Served from the pre-costed table when possible; costed on
        demand (and memoized) for trace keys or settings the pre-pass
        could not know about -- merged-batch SQL, retuned nodes.
        """
        pair = (node.spec.hw, node.setting)
        if node.pair is None:
            node.pair = self.pairs.setdefault(pair, len(self.pairs))
        per_key = self._durations.setdefault(node.pair, {})
        if key not in per_key:
            per_key[key] = self.machine(pair).run_compiled(
                self._table[key], self._workload_class
            ).duration_s
        return per_key[key]

    def _service(self, sql: str) -> Service:
        """``sql``'s service time on a node under the setting the node
        holds when asked, so a router that retunes a node mid-stream
        (``AdaptivePvcRouter``) sees -- and the simulator schedules --
        the new setting's time at once: a retune clears the node's
        pair index, so the next call looks the new pair up."""
        durations = self._durations

        def service(node: SimulatedNode) -> float:
            try:
                return durations[node.pair][sql]
            except KeyError:
                return self._duration_for(node, sql)

        return service

    def _merged(self, batch: Batch):
        """:func:`merge_queries` of ``batch`` (None: not mergeable),
        once per run per sequence of member statements."""
        codes = self._codes
        key = tuple([codes[q.query_id] for q in batch.queries])
        if key not in self._merges:
            try:
                self._merges[key] = merge_queries(batch.sqls)
            except NotMergeableError:
                self._merges[key] = None
        return self._merges[key]

    def _schedule_batch(
        self,
        node: SimulatedNode,
        batch: Batch,
        stats: QedPartitionStats,
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
            self._assign_singletons(node, batch.queries, batch.dispatch_s)
            stats.singleton_windows += 1
            return
        merged = self._merged(batch)
        if merged is None:
            self._assign_singletons(node, batch.queries, batch.dispatch_s)
            stats.fallback_batches += 1
            stats.singleton_windows += batch.size
            return
        key = merged.sql
        if key not in self._table:
            self._table[key] = merged_batch_trace(self.runner, merged)
        work = node.assign(
            key, batch.dispatch_s, self._duration_for(node, key),
            tuple(q.query_id for q in batch.queries),
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "merge", node.spec.name, work.start_s, size=batch.size,
            )
        stats.merged_windows += 1

    def _peak_model_power_w(self, windows: ScheduleTable) -> float:
        """Peak fleet power under the linear per-node envelope.

        The same model the power-cap router schedules against: awake
        nodes draw idle watts (wake transitions included), busy windows
        add ``busy - idle``, sleeping nodes draw their sleep watts.
        One sweep over power steps: every window's start and end, and
        every sleep-to-wake and awake-to-sleep transition (dynamic
        re-consolidation can produce many per node), in (time, step)
        order, summed from the fleet's starting draw.

        It runs in ``SCHEDULE_CHUNK``-row blocks, holding one block's
        steps: a block sums the steps before its cut (the earliest start
        or end of any later row, so no later step precedes them) onto
        the carried total and carries the rest; the last sums all that
        is left.  The blocks laid end to end are the run's (time, step)
        order, so the float additions are one ``cumsum``'s over the run.
        A loop run's node-major rows are visited in start order, so that
        each cut bounds what its block carries there too.
        """
        baseline = 0.0
        deltas = np.empty(len(self.nodes))
        step_t: list[float] = []
        step_w: list[float] = []
        for j, node in enumerate(self.nodes):
            est = node.power_estimate()
            sleep_step = est.idle_wall_w - node.spec.sleep_wall_w
            if node.started_awake:
                baseline += est.idle_wall_w
            else:
                baseline += node.spec.sleep_wall_w
            for called, _ready in node.wake_log:
                step_t.append(called)
                step_w.append(sleep_step)
            for start, _end in node.sleep_log:
                if start > 0.0:
                    step_t.append(start)
                    step_w.append(-sleep_step)
            deltas[j] = est.busy_wall_w - est.idle_wall_w
        starts, ends = windows.start_s, windows.end_s
        node_idx = windows.node_idx
        if windows.offsets is not None:
            order = np.argsort(starts, kind="stable")
            starts, ends, node_idx = (
                column[order] for column in (starts, ends, node_idx)
            )
        chunk = self.SCHEDULE_CHUNK
        later = np.arange(chunk, len(starts), chunk)
        # cuts[k]: the earliest start or end of any row after block k.
        cuts = np.minimum.accumulate(np.minimum(
            np.minimum.reduceat(starts, later),
            np.minimum.reduceat(ends, later),
        )[::-1])[::-1]
        pending_t, pending_w = np.array(step_t), np.array(step_w)
        total = peak = baseline
        for k, lo in enumerate(range(0, max(len(starts), 1), chunk)):
            rows = slice(lo, lo + chunk)
            busy = deltas[node_idx[rows]]
            t = np.concatenate([pending_t, starts[rows], ends[rows]])
            w = np.concatenate([pending_w, busy, -busy])
            del busy
            if k < len(cuts):
                held = ~(t < cuts[k])  # a NaN cut holds every step
                pending_t, pending_w = t[held], w[held]
                t, w = t[~held], w[~held]
            power = np.empty(len(w) + 1)
            power[0] = total
            np.take(w, np.lexsort((w, t)), out=power[1:])
            np.cumsum(power, out=power)
            total, peak = power[-1], np.maximum(peak, power.max())
        return float(peak)

    # -- phase 2: playback -------------------------------------------------

    def playback(self, schedule: ClusterSchedule) -> ClusterMeasurement:
        """Turn a schedule into energy and service quality.

        Busy windows and served queries come from the schedule table's
        columns on either engine, with no per-query Python object; node
        energies are counted from a vectorized run's table or played
        from a loop run's timeline rows.
        """
        nodes = schedule.nodes
        names = [node.spec.name for node in nodes]
        windows = schedule.windows
        if schedule.timeline is None:
            measurements = play_table(
                nodes, windows, len(schedule.table), schedule.measured,
                schedule.horizon_s, schedule.workload_class,
            )
        else:
            measurements = play_timeline(
                nodes, list(schedule.table.values()), schedule.timeline,
                schedule.workload_class, self.machine,
            )
        busy_s = windows.busy_s(len(nodes)).tolist()
        responses = windows.response_columns(schedule.arrivals, names)
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
                playback=measurements[j],
                sleep_joules=node.spec.sleep_wall_w * sleep_s,
                re_sleeps=node.re_sleeps,
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
            busy_windows=(windows.node_idx, windows.start_s, windows.end_s),
        )

    def run(self, arrivals: Iterable[Arrival],
            vectorized: bool | None = None) -> ClusterMeasurement:
        """Schedule and play an arrival stream end to end."""
        return self.playback(self.schedule(arrivals, vectorized=vectorized))
