"""Routing policies: where (and when) each arrival runs.

The paper's *global* techniques -- "change the job scheduling method for
the entire system" and "turn entire servers off when not required" --
become routing policies over the simulated fleet:

``RoundRobinRouter``
    The traditional load balancer (``Fleet.spread`` over time): every
    node stays awake, arrivals rotate across the fleet.
``LeastLoadedRouter``
    Shortest-completion-time routing: pick the node that would finish
    the query earliest given its backlog.
``ConsolidateRouter``
    Energy-aware packing (``Fleet.consolidate`` over time): keep as few
    nodes awake as possible, wake the next node only when every awake
    node's backlog exceeds the cap, and pay the wake-latency penalty --
    work never starts on a waking node before its transition completes.
``DynamicConsolidateRouter``
    Consolidate under *time-varying* load: an EWMA of the observed
    arrival rate (optionally cross-checked against a known
    :class:`~repro.workloads.arrivals.RateSchedule`) sizes the awake
    set online -- drained nodes re-sleep when demand drops below a
    hysteresis band, and nodes re-wake *ahead* of scheduled peaks by
    their wake latency.
``AdaptivePvcRouter``
    Per-node online PVC control: every node walks the adaptation ladder
    (:data:`~repro.core.pvc.adaptive.DEFAULT_LADDER`) using its own
    backlog as deadline feedback -- loaded nodes speed up to protect
    response times, idle nodes sink to the cheapest stable setting.
``PowerCapRouter``
    Cap-aware admission: schedule work so the fleet's modeled power
    (linear per-node envelope) never exceeds a wall-power cap, delaying
    queries into power headroom or shedding them when the delay would
    exceed the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import SimulatedNode
from repro.cluster.placement import (
    quorum_cover,
    quorum_wake_candidates,
    sleep_would_break_quorum,
    stable_hash,
)
from repro.core.pvc.adaptive import DEFAULT_LADDER, ladder_step
from repro.workloads.arrivals import RateSchedule


@dataclass(frozen=True)
class Decision:
    """Where one arrival goes: a node (or None = shed) and the earliest
    time the node may begin servicing it."""

    node: SimulatedNode | None
    dispatch_s: float


class Router:
    """Base policy: all nodes awake, subclass picks the target.

    Stateless-over-arrivals policies may additionally implement
    ``route_chunk`` -- the vectorized fast path the simulator uses to
    route whole structure-of-arrays chunks at once (see
    :func:`sequence_chunk_on_nodes`).  Policies whose decisions depend
    on evolving per-arrival state the chunk form cannot express (sleep
    and wake transitions, EWMA load tracking, power-cap admission)
    simply omit it and keep the exact per-arrival loop.

    When a :class:`~repro.cluster.placement.PlacementMap` is active the
    simulator installs it as ``placement`` (before ``prepare``) and
    narrows the ``nodes`` list passed to ``route`` to the arrival's
    eligible replica set; consolidating subclasses additionally consult
    the map's quorum constraints before sleeping nodes.  Every
    ``route_chunk`` takes the same constraint as an ``eligible``
    ``(distinct, nodes)`` mask, so placement-constrained runs stay on
    the vectorized path.
    """

    #: Installed by the simulator when a placement map constrains the
    #: run; None reproduces the fully-replicated seed behavior.
    placement = None

    def prepare(self, nodes: list[SimulatedNode]) -> None:
        """Reset per-run state; called once before the event loop."""
        for node in nodes:
            node.reset(awake=True)

    def route(self, sql: str, now_s: float,
              service_by_node: dict[str, float],
              nodes: list[SimulatedNode]) -> Decision:
        raise NotImplementedError

    def describe(self) -> dict:
        """Scalar configuration for run fingerprints.

        Public scalar attributes only (plus lists whose elements
        describe themselves as scalars, e.g. an adaptive router's PVC
        ladder); underscore-prefixed state is per-run and excluded so
        the fingerprint is stable across runs of the same policy.
        """
        out: dict = {"policy": type(self).__name__}
        for key, value in sorted(vars(self).items()):
            if key.startswith("_"):
                continue
            if value is None or isinstance(value, (bool, int, float, str)):
                out[key] = value
            elif isinstance(value, (list, tuple)):
                parts = [
                    v.describe() if hasattr(v, "describe") else v
                    for v in value
                ]
                if all(
                    isinstance(p, (bool, int, float, str)) for p in parts
                ):
                    out[key] = list(parts)
        return out


def sequence_chunk_on_nodes(
    times: np.ndarray,
    service_s: np.ndarray,
    node_idx: np.ndarray,
    nodes: list[SimulatedNode],
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form FIFO sequencing of an already-routed chunk.

    Given each arrival's target node and service time, computes the
    start/end times the per-arrival loop's ``node.assign`` recurrence
    (``end_i = max(t_i, end_{i-1}) + s_i`` per node) produces, without
    iterating arrivals in Python: with ``S_i = cumsum(s)`` the
    recurrence solves to ``end_i = S_i + cummax(max(t_i, e0) - S_{i-1})``
    where ``e0`` is the node's busy horizon entering the chunk.  Each
    node's ``busy_until`` advances to its last end so consecutive
    chunks chain exactly.
    """
    starts = np.empty_like(times)
    ends = np.empty_like(times)
    for j, node in enumerate(nodes):
        mask = node_idx == j
        t = times[mask]
        if t.size == 0:
            continue
        s = service_s[mask]
        csum = np.cumsum(s)
        anchor = np.maximum(t, node.busy_until) - (csum - s)
        e = csum + np.maximum.accumulate(anchor)
        ends[mask] = e
        # Starts come from the recurrence itself (max of arrival and
        # the previous end), not ``e - s``: re-deriving the max keeps
        # back-to-back pieces exactly contiguous where the closed-form
        # subtraction can land an ulp off and momentarily double-count
        # the node in power-step sweeps.
        prev_e = np.empty_like(e)
        prev_e[0] = node.busy_until
        prev_e[1:] = e[:-1]
        starts[mask] = np.maximum(t, prev_e)
        node.busy_until = float(e[-1])
    return starts, ends


class RoundRobinRouter(Router):
    """Spread placement over time: rotate arrivals across the fleet."""

    def __init__(self) -> None:
        self._next = 0

    def prepare(self, nodes: list[SimulatedNode]) -> None:
        super().prepare(nodes)
        self._next = 0

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        # Rotate past crashed/unavailable nodes; a full cycle with no
        # serviceable node refuses the arrival (the simulator's retry
        # policy takes over when a fault plan is active).
        for _ in range(len(nodes)):
            node = nodes[self._next % len(nodes)]
            self._next += 1
            if not node.can_serve(now_s):
                continue
            if not node.awake:
                # A recovered node rejoins through its wake transition.
                node.wake(now_s)
                if not node.awake:
                    continue
            return Decision(node, now_s)
        return Decision(None, now_s)

    def route_chunk(self, times, sql_idx, service, distinct, nodes,
                    eligible=None):
        """Vectorized spread: arrival ``k`` lands on ``(next+k) mod N``.

        With an ``eligible`` mask, arrival ``k`` of template ``d`` lands
        on ``pool_d[(next+k) mod len(pool_d)]``, ``pool_d`` being the
        template's eligible nodes in fleet order -- the loop's rotation
        over the narrowed list the simulator hands ``route``.
        """
        turn = self._next + np.arange(len(times))
        if eligible is None:
            node_idx = turn % len(nodes)
        else:
            # Each row's eligible node indices first, in fleet order.
            pools = np.argsort(~eligible, axis=1, kind="stable")
            sizes = eligible.sum(axis=1)
            node_idx = pools[sql_idx, turn % sizes[sql_idx]]
        self._next += len(times)
        service_s = service[sql_idx, node_idx]
        starts, ends = sequence_chunk_on_nodes(
            times, service_s, node_idx, nodes
        )
        return node_idx, starts, ends


def earliest_completion_node(
    nodes: list[SimulatedNode],
    now_s: float,
    service_by_node: dict[str, float],
) -> SimulatedNode:
    """The node that would finish the query soonest (ties: node order)."""
    return min(
        nodes,
        key=lambda n: (
            max(now_s, n.ready_s) + service_by_node[n.spec.name]
        ),
    )


class LeastLoadedRouter(Router):
    """Route to the node that would complete the query earliest."""

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        # Earliest completion first (stable, so fault-free runs pick
        # the same node min() used to); a crashed-then-recovered node
        # rejoins through its wake transition, and if the wake fails
        # the next-best node takes the query.
        pool = sorted(
            (n for n in nodes if n.can_serve(now_s)),
            key=lambda n: (
                max(now_s, n.ready_s) + service_by_node[n.spec.name]
            ),
        )
        for node in pool:
            if not node.awake:
                node.wake(now_s)
                if not node.awake:
                    continue
            return Decision(node, now_s)
        return Decision(None, now_s)

    def route_chunk(self, times, sql_idx, service, distinct, nodes,
                    eligible=None):
        """Argmin form of the earliest-completion rule.

        Exact, not approximate: per arrival, the candidate completion
        vector ``max(busy, t) + service`` is the same float expression
        the loop sorts on, and ``np.argmin`` returns the *first*
        minimum -- the stable sort's node-order tie-break.  The state
        recurrence stays sequential (each choice feeds the next) but
        runs as O(nodes) array ops per arrival instead of building and
        sorting a Python candidate list.

        ``eligible`` (a ``(distinct, nodes)`` bool mask) expresses the
        placement constraint: ineligible completions become ``+inf``,
        which reproduces the loop's sorted-subset choice exactly --
        node order is preserved, so the tie-break is unchanged.
        """
        busy = np.array([node.busy_until for node in nodes])
        node_idx = np.empty(len(times), dtype=np.intp)
        starts = np.empty_like(times)
        ends = np.empty_like(times)
        for k in range(len(times)):
            ready = np.maximum(busy, times[k])
            completion = ready + service[sql_idx[k]]
            if eligible is not None:
                completion = np.where(
                    eligible[sql_idx[k]], completion, np.inf
                )
            j = int(np.argmin(completion))
            node_idx[k] = j
            starts[k] = ready[j]
            ends[k] = completion[j]
            busy[j] = completion[j]
        for j, node in enumerate(nodes):
            node.busy_until = float(busy[j])
        return node_idx, starts, ends


class HashSplitRouter(Router):
    """Template-affinity spread: hash each statement to its home node.

    The routed analogue of QED's :class:`HashSplitPlacement`: a stable
    hash of the SQL text pins every distinct template to one node, so
    repeat arrivals of a template always land where its working set is
    already hot.  All nodes stay awake (like spread); a crashed home
    node falls through to the next slot in hash order until recovery.

    Under a placement map this is real shard routing: the simulator
    narrows ``nodes`` to the owning replica set, so the hash pins each
    template to a *replica* of its shard (falling through to the other
    replicas when that one is down).
    """

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        first = stable_hash(sql) % len(nodes)
        for k in range(len(nodes)):
            node = nodes[(first + k) % len(nodes)]
            if not node.can_serve(now_s):
                continue
            if not node.awake:
                node.wake(now_s)
                if not node.awake:
                    continue
            return Decision(node, now_s)
        return Decision(None, now_s)

    def route_chunk(self, times, sql_idx, service, distinct, nodes,
                    eligible=None):
        """Vectorized affinity: hash each template once, then gather.

        With an ``eligible`` mask, each template hashes over its own
        eligible node list (in node order) -- exactly the subset the
        loop path receives from the simulator -- and the chosen index
        maps back to the fleet position.
        """
        if eligible is None:
            home = np.array(
                [stable_hash(sql) % len(nodes) for sql in distinct],
                dtype=np.intp,
            )
        else:
            home = np.empty(len(distinct), dtype=np.intp)
            for d, sql in enumerate(distinct):
                pool = np.flatnonzero(eligible[d])
                home[d] = pool[stable_hash(sql) % len(pool)]
        node_idx = home[sql_idx]
        service_s = service[sql_idx, node_idx]
        starts, ends = sequence_chunk_on_nodes(
            times, service_s, node_idx, nodes
        )
        return node_idx, starts, ends


class ConsolidateRouter(Router):
    """Pack arrivals onto the fewest awake nodes; the rest sleep.

    A node accepts work while its backlog (time until it would start
    this query, plus the query itself) stays within ``max_backlog_s``
    scaled by the node's relative ``capacity`` -- the time-domain
    analogue of ``Fleet.consolidate``'s utilization cap.
    When every awake node is over the cap, a sleeping node is woken
    *only if* waking it (wake latency + service) would answer the query
    sooner than the least-loaded awake node -- a short burst therefore
    rides out on the awake set instead of stampeding the whole fleet
    out of sleep.  Otherwise the least-loaded awake node takes the
    overflow (the closed-form model's fall-back-to-spread).
    """

    def __init__(self, max_backlog_s: float):
        if max_backlog_s <= 0:
            raise ValueError("max_backlog_s must be positive")
        self.max_backlog_s = max_backlog_s

    def prepare(self, nodes: list[SimulatedNode]) -> None:
        if not nodes:
            raise ValueError("router needs at least one node")
        self._fleet = list(nodes)
        if self.placement is None:
            awake_names = {nodes[0].spec.name}
        else:
            # Quorum cover: the run starts with every shard's quorum of
            # replicas awake instead of a single node, so consolidation
            # never begins with a shard entirely asleep.
            awake_names = quorum_cover(self.placement, nodes)
        for node in nodes:
            node.reset(awake=node.spec.name in awake_names)

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        usable = [n for n in nodes if n.can_serve(now_s)]
        awake = [n for n in usable if n.awake]
        for node in awake:
            backlog = (
                max(node.ready_s, now_s) - now_s
                + service_by_node[node.spec.name]
            )
            if backlog <= self.max_backlog_s * node.spec.capacity:
                return Decision(node, now_s)
        best_awake = (
            earliest_completion_node(awake, now_s, service_by_node)
            if awake else None
        )
        best_completion = (
            max(now_s, best_awake.ready_s)
            + service_by_node[best_awake.spec.name]
            if best_awake is not None else math.inf
        )
        # Cheapest wake first (stable, so fault-free runs pick the same
        # node the one-shot min() used to).  A wake may *fail* under a
        # fault plan; fall through to the next candidate, and with no
        # awake node at all keep trying sleepers regardless of cost.
        sleepers = sorted(
            (n for n in usable if not n.awake),
            key=lambda n: (
                n.spec.wake_latency_s + service_by_node[n.spec.name]
            ),
        )
        for candidate in sleepers:
            wake_completion = (
                now_s + candidate.spec.wake_latency_s
                + service_by_node[candidate.spec.name]
            )
            if wake_completion >= best_completion:
                break
            candidate.wake(now_s)
            if candidate.awake:
                return Decision(candidate, now_s)
        if best_awake is None:
            return Decision(None, now_s)
        return Decision(best_awake, now_s)


class DynamicConsolidateRouter(ConsolidateRouter):
    """Re-consolidate under time-varying load.

    The one-shot :class:`ConsolidateRouter` only ever *grows* the awake
    set; under a diurnal profile that leaves the whole daytime fleet
    burning idle watts all night.  This policy sizes the awake set
    online from the *offered load* (arrival-rate EWMA x service-time
    EWMA, in Erlangs) against a target utilization:

    * **re-sleep**: when the awake capacity exceeds the needed capacity
      by the ``hysteresis`` band, *drained* nodes (no backlog, no
      queued work) are put back to sleep, never below ``min_awake``;
    * **pre-wake**: when a ``schedule`` is supplied, the policy also
      evaluates the known rate curve one wake-latency *ahead* of now,
      so capacity for a scheduled peak is awake (and through its wake
      transition) by the time the peak arrives;
    * the parent's reactive overflow path remains as the safety valve
      for unscheduled bursts.

    The hysteresis band is what prevents sleep/wake thrash around a
    slowly moving rate; decisions happen at arrival times (the event
    loop's clock), which suffices because an empty stream costs only
    idle/sleep power anyway.
    """

    def __init__(
        self,
        max_backlog_s: float,
        target_utilization: float = 0.7,
        hysteresis: float = 0.3,
        ewma_alpha: float = 0.2,
        schedule: RateSchedule | None = None,
        min_awake: int = 1,
    ):
        super().__init__(max_backlog_s)
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if min_awake < 1:
            raise ValueError("min_awake must be >= 1")
        self.target_utilization = target_utilization
        self.hysteresis = hysteresis
        self.ewma_alpha = ewma_alpha
        self.schedule = schedule
        self.min_awake = min_awake

    def prepare(self, nodes: list[SimulatedNode]) -> None:
        if len(nodes) < self.min_awake:
            raise ValueError("min_awake exceeds the fleet size")
        self._fleet = list(nodes)
        awake_names = {n.spec.name for n in nodes[:self.min_awake]}
        if self.placement is not None:
            awake_names |= quorum_cover(self.placement, nodes)
        for node in nodes:
            node.reset(awake=node.spec.name in awake_names)
        self._last_arrival_s: float | None = None
        self._gap_ewma: float | None = None
        self._service_ewma: float | None = None

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        self._observe(now_s, service_by_node, nodes)
        self._resize_awake_set(now_s, nodes)
        return super().route(sql, now_s, service_by_node, nodes)

    # -- load observation -------------------------------------------------

    def _observe(self, now_s, service_by_node, nodes) -> None:
        alpha = self.ewma_alpha
        if self._last_arrival_s is not None:
            gap = now_s - self._last_arrival_s
            self._gap_ewma = (
                gap if self._gap_ewma is None
                else alpha * gap + (1 - alpha) * self._gap_ewma
            )
        self._last_arrival_s = now_s
        service = sum(
            service_by_node[n.spec.name] for n in nodes
        ) / len(nodes)
        self._service_ewma = (
            service if self._service_ewma is None
            else alpha * service + (1 - alpha) * self._service_ewma
        )

    def _demand_erlangs(self, now_s: float,
                        nodes: list[SimulatedNode]) -> float | None:
        """Offered load (busy-node equivalents): rate x service time.

        Uses the larger of the observed EWMA rate and -- when a rate
        schedule is known -- the scheduled rate one wake latency ahead,
        which is exactly the horizon at which waking a node now pays
        off.  Returns None until both EWMAs have observations.
        """
        if self._gap_ewma is None or self._service_ewma is None:
            return None
        rate = 1.0 / max(self._gap_ewma, 1e-9)
        if self.schedule is not None:
            lookahead = max(
                (n.spec.wake_latency_s for n in nodes if not n.awake),
                default=0.0,
            )
            rate = max(rate, self.schedule.rate_at(now_s + lookahead))
        return rate * self._service_ewma

    # -- awake-set sizing -------------------------------------------------

    def _resize_awake_set(self, now_s: float,
                          nodes: list[SimulatedNode]) -> None:
        usable = [n for n in nodes if n.can_serve(now_s)]
        awake = [n for n in usable if n.awake]
        sleepers = [n for n in usable if not n.awake]

        # Replacement floor: when a crash (or unavailability window)
        # drops the serviceable awake set below ``min_awake``, re-wake
        # the cheapest sleeping replacement immediately -- before the
        # EWMAs have warmed up, and regardless of measured demand.
        while len(awake) < self.min_awake and sleepers:
            node = min(sleepers, key=lambda n: n.spec.wake_latency_s)
            node.wake(now_s)
            sleepers.remove(node)
            if node.awake:  # the wake may fail under a fault plan
                awake.append(node)

        # Quorum floor: crashes and failed wakes can strip a shard of
        # its quorum of awake replicas even while ``min_awake`` holds
        # fleet-wide; re-wake the sleeping holders that close the gap.
        # The check runs over the whole fleet (``prepare``'s node
        # list), not the eligible subset this arrival routed over --
        # the gap may be on shards this arrival never touches.
        if self.placement is not None:
            for node in quorum_wake_candidates(
                self.placement, self._fleet, now_s
            ):
                node.wake(now_s)
                if node in sleepers:
                    sleepers.remove(node)
                    if node.awake:
                        awake.append(node)

        demand = self._demand_erlangs(now_s, nodes)
        if demand is None:
            return
        needed_cap = demand / self.target_utilization
        awake_cap = sum(n.spec.capacity for n in awake)

        # Pre-wake: cheapest transition first (its capacity is usable
        # soonest), until the awake capacity covers the demand.
        while sleepers and awake_cap < needed_cap:
            node = min(sleepers, key=lambda n: n.spec.wake_latency_s)
            node.wake(now_s)
            sleepers.remove(node)
            if not node.awake:  # failed wake adds no capacity
                continue
            awake.append(node)
            awake_cap += node.spec.capacity

        # Re-sleep: walk the awake tail (keep the head nodes hot) and
        # sleep drained nodes while the remaining capacity still clears
        # the demand by the full hysteresis band.  Under a placement
        # map a node additionally stays awake while it is the last
        # awake quorum replica of any shard it holds.
        for node in reversed(awake[self.min_awake:]):
            surplus_ok = (
                awake_cap - node.spec.capacity
                >= needed_cap * (1.0 + self.hysteresis)
            )
            if (
                surplus_ok and node.drained(now_s)
                and not sleep_would_break_quorum(
                    self.placement, node, self._fleet, now_s
                )
            ):
                node.sleep(now_s)
                awake_cap -= node.spec.capacity


class AdaptivePvcRouter(Router):
    """Route least-loaded while adapting each node's PVC level online.

    The single-machine :func:`~repro.core.pvc.adaptive.ladder_step`
    controller, applied per node with *backlog* as the feedback signal:
    before dispatching to the earliest-completion node, the router
    projects this query's response time (queue wait + service at the
    node's current level) against ``deadline_s`` and steps the node's
    ladder level -- up (faster, costlier) when the projection busts the
    deadline, down (cheaper) when it sits under ``slack_threshold x
    deadline``.  A level change applies from the window being
    dispatched onward (the triggering query itself runs -- and is
    costed -- under the stepped setting); playback costs every window
    under the setting it was scheduled at, so batched and loop
    playback stay identical.
    """

    def __init__(self, deadline_s: float,
                 ladder: list | None = None,
                 slack_threshold: float = 0.85):
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.ladder = list(DEFAULT_LADDER) if ladder is None else list(ladder)
        if not self.ladder:
            raise ValueError("ladder must not be empty")
        if not 0.0 < slack_threshold <= 1.0:
            raise ValueError("slack_threshold must be in (0, 1]")
        self.deadline_s = deadline_s
        self.slack_threshold = slack_threshold

    def prepare(self, nodes: list[SimulatedNode]) -> None:
        super().prepare(nodes)
        # Start every node at the cheapest stable setting, as the
        # single-machine controller does; load walks them up.
        self._level = {n.spec.name: len(self.ladder) - 1 for n in nodes}
        for node in nodes:
            node.set_setting(self.ladder[self._level[node.spec.name]],
                             0.0)

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        pool = sorted(
            (n for n in nodes if n.can_serve(now_s)),
            key=lambda n: (
                max(now_s, n.ready_s) + service_by_node[n.spec.name]
            ),
        )
        node = None
        for candidate in pool:
            if not candidate.awake:
                # A recovered node rejoins through its wake transition.
                candidate.wake(now_s)
                if not candidate.awake:
                    continue
            node = candidate
            break
        if node is None:
            return Decision(None, now_s)
        name = node.spec.name
        projected = (
            max(now_s, node.ready_s) - now_s + service_by_node[name]
        )
        level = self._level[name]
        stepped = ladder_step(level, projected, self.deadline_s,
                              len(self.ladder), self.slack_threshold)
        if stepped != level:
            self._level[name] = stepped
            node.set_setting(self.ladder[stepped], now_s)
        return Decision(node, now_s)


# -- master-queue batch placement ------------------------------------------


class BatchPlacement:
    """Where a master-queue batch runs: a policy over *whole batches*.

    The master queue (see :mod:`repro.cluster.master_queue`) dispatches
    merged batches rather than single queries, so placement is a
    separate policy axis from per-arrival routing: ``place`` maps one
    dispatched batch to one or more ``(node, queries)`` assignments.
    Splitting a batch keeps each shard mergeable (shards of a mergeable
    partition share its template).

    ``service_by_node`` estimates one representative query of the batch
    on every node -- enough for load comparison; the exact merged cost
    is resolved per node when the shard is scheduled.
    """

    def prepare(self, router: Router,
                nodes: list[SimulatedNode]) -> None:
        """Bind the run's router (called once before the event loop,
        after ``router.prepare``)."""
        self.router = router

    @property
    def placement(self):
        """The run's data-placement map (via the bound router); None
        until ``prepare`` binds a router or when no map is active."""
        return getattr(self.router, "placement", None)

    def place(self, batch, merged, now_s: float,
              service_by_node, nodes: list[SimulatedNode]):
        """``[(node, queries), ...]`` covering every query in ``batch``
        exactly once (empty list: shed the whole batch).  Under a
        placement map the simulator pre-groups batches by shard and
        passes the owning replica set as ``nodes``."""
        raise NotImplementedError

    @staticmethod
    def _usable(nodes: list[SimulatedNode],
                now_s: float) -> list[SimulatedNode]:
        """Serviceable awake nodes, else serviceable sleepers (a fully
        asleep fleet falls back to waking); crashed/unavailable nodes
        never appear."""
        pool = [n for n in nodes if n.can_serve(now_s)]
        awake = [n for n in pool if n.awake]
        return awake or pool

    def _place_least_loaded(self, batch, now_s, service_by_node, nodes):
        """Whole batch to the earliest-completion usable node; a
        sleeper whose wake fails under a fault plan is skipped, and an
        empty list sheds the batch into the simulator's retry path."""
        pool = sorted(
            self._usable(nodes, now_s),
            key=lambda n: (
                max(now_s, n.ready_s) + service_by_node[n.spec.name]
            ),
        )
        for node in pool:
            if not node.awake:
                node.wake(now_s)
            if not node.awake:
                continue
            return [(node, batch.queries)]
        return []


class LeastLoadedPlacement(BatchPlacement):
    """The whole batch goes to the awake node finishing it soonest."""

    def place(self, batch, merged, now_s, service_by_node, nodes):
        return self._place_least_loaded(
            batch, now_s, service_by_node, nodes
        )


class ConsolidatePlacement(BatchPlacement):
    """Delegate placement to the run's (consolidate-family) router.

    Each dispatched batch is routed like one arrival, so a
    :class:`DynamicConsolidateRouter` keeps doing its awake-set sizing
    -- EWMA observation, re-sleeping drained nodes, pre-waking ahead of
    scheduled peaks -- off the master queue's *dispatch* stream.  Fewer,
    larger dispatches concentrate work, which is exactly what lets the
    awake set shrink below what per-arrival routing sustains.
    """

    def place(self, batch, merged, now_s, service_by_node, nodes):
        decision = self.router.route(
            batch.queries[0].sql, now_s, service_by_node, nodes
        )
        if decision.node is None:
            return []
        return [(decision.node, batch.queries)]


class HashSplitPlacement(BatchPlacement):
    """Split one merged batch across awake nodes by routing value.

    When the merged query is hash-routable (every predicate
    ``column = literal``; :attr:`MergedQuery.routing_column`), the
    batch's queries shard by ``hash(value) % k`` over the ``k``
    least-loaded awake nodes -- one smaller merged execution per shard,
    in parallel, the way a real deployment would fan a fleet-wide batch
    out over replicas.  Non-routable (or singleton) batches fall back
    to least-loaded whole-batch placement.
    """

    def __init__(self, fanout: int | None = None):
        if fanout is not None and fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.fanout = fanout

    def place(self, batch, merged, now_s, service_by_node, nodes):
        if self.placement is not None:
            # Real shard routing: the simulator has already split the
            # dispatched batch by shard and narrowed ``nodes`` to the
            # owning replica set, so the remaining decision is which
            # live replica serves the piece -- the least-loaded one.
            return self._place_least_loaded(
                batch, now_s, service_by_node, nodes
            )
        targets = sorted(
            self._usable(nodes, now_s),
            key=lambda n: (
                max(now_s, n.ready_s) + service_by_node[n.spec.name],
                n.spec.name,
            ),
        )
        if not targets:
            return []
        k = min(len(targets), self.fanout or len(targets), batch.size)
        if merged is None or not merged.hash_routable or k < 2:
            for node in targets:
                if not node.awake:
                    node.wake(now_s)
                if not node.awake:  # wake failed; try the next target
                    continue
                return [(node, batch.queries)]
            return []
        targets = targets[:k]
        shards: list[list] = [[] for _ in range(k)]
        for query, value in zip(batch.queries, merged.routing_values):
            # Builtin hash() is randomized per process for strings;
            # shard placement must be reproducible across runs.
            shards[stable_hash(value) % k].append(query)
        out = []
        orphans: list = []
        for node, shard in zip(targets, shards):
            if not shard:
                continue
            if not node.awake:
                node.wake(now_s)
            if not node.awake:  # wake failed; reassign this shard
                orphans.extend(shard)
                continue
            out.append((node, shard))
        if orphans:
            if not out:
                return []
            node, shard = out[0]
            out[0] = (node, list(shard) + orphans)
        return out


@dataclass(frozen=True)
class _Interval:
    start_s: float
    end_s: float
    delta_w: float


class PowerCapRouter(Router):
    """Keep the fleet's modeled wall power under ``cap_w``.

    Every node stays awake (the cap constrains *activity*, not
    provisioning); each busy window adds its node's ``busy - idle``
    power delta on top of the all-idle baseline.  A query is placed on
    the node that can complete it earliest without the fleet's modeled
    power exceeding the cap at any instant -- delaying its start into
    headroom if needed.  If the required delay exceeds ``max_delay_s``
    the query is shed (``Decision(node=None)``).
    """

    def __init__(self, cap_w: float, max_delay_s: float | None = None):
        if cap_w <= 0:
            raise ValueError("cap_w must be positive")
        if max_delay_s is not None and max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.cap_w = cap_w
        self.max_delay_s = max_delay_s
        self._baseline_w = 0.0
        self._deltas: dict[str, float] = {}
        self._intervals: list[_Interval] = []

    def prepare(self, nodes: list[SimulatedNode]) -> None:
        super().prepare(nodes)
        if any(node.queue is not None for node in nodes):
            # A per-node QED queue re-times work after routing (merged
            # batch windows the router never saw), which would silently
            # void the cap guarantee.
            raise ValueError(
                "PowerCapRouter cannot cap nodes with QED queues; "
                "drop the queue policy or use another router"
            )
        self._intervals = []
        self._deltas = {}
        self._baseline_w = 0.0
        for node in nodes:
            est = node.power_estimate()
            self._deltas[node.spec.name] = est.busy_wall_w - est.idle_wall_w
            self._baseline_w += est.idle_wall_w
        if self._baseline_w > self.cap_w:
            raise ValueError(
                f"cap {self.cap_w} W is below the fleet's idle floor "
                f"{self._baseline_w:.1f} W"
            )
        if self._baseline_w + min(self._deltas.values()) > self.cap_w:
            raise ValueError(
                "cap leaves no headroom for any node to serve a query"
            )

    def route(self, sql, now_s, service_by_node, nodes) -> Decision:
        # Completed windows can never constrain future placements.
        self._intervals = [
            iv for iv in self._intervals if iv.end_s > now_s
        ]
        best: tuple[float, float, SimulatedNode] | None = None
        for node in nodes:
            if not node.can_serve(now_s):
                continue
            if not node.awake:
                # A recovered node rejoins through its wake transition.
                node.wake(now_s)
                if not node.awake:
                    continue
            delta = self._deltas[node.spec.name]
            if self._baseline_w + delta > self.cap_w:
                continue  # this node alone would breach the cap
            service = service_by_node[node.spec.name]
            s0 = max(now_s, node.ready_s)
            start = self._earliest_feasible(s0, service, delta)
            if (
                self.max_delay_s is not None
                and start - now_s > self.max_delay_s
            ):
                continue  # this node can't start soon enough
            completion = start + service
            if best is None or completion < best[0]:
                best = (completion, start, node)
        if best is None:
            # No node both fits under the cap and meets the delay bound.
            return Decision(None, now_s)
        completion, start, node = best
        self._intervals.append(
            _Interval(start, completion, self._deltas[node.spec.name])
        )
        return Decision(node, start)

    def _earliest_feasible(self, s0: float, service_s: float,
                           delta_w: float) -> float:
        """Earliest start >= s0 keeping modeled power <= cap throughout.

        Candidate starts are ``s0`` and the ends of currently scheduled
        windows -- modeled power only drops at window ends, so the first
        feasible candidate is (conservatively) the earliest placement.
        """
        active = [iv for iv in self._intervals if iv.end_s > s0]
        headroom = self.cap_w - self._baseline_w - delta_w
        candidates = sorted(
            {s0} | {iv.end_s for iv in active if iv.end_s > s0}
        )
        for start in candidates:
            if self._peak_overlap(active, start,
                                  start + service_s) <= headroom + 1e-9:
                return start
        # Unreachable: after the last active window ends nothing overlaps,
        # and prepare() guarantees baseline + delta <= cap.
        return candidates[-1]  # pragma: no cover

    @staticmethod
    def _peak_overlap(active: list[_Interval], start_s: float,
                      end_s: float) -> float:
        """Peak concurrent power delta from ``active`` inside a window."""
        events: list[tuple[float, float]] = []
        for iv in active:
            a = max(iv.start_s, start_s)
            b = min(iv.end_s, end_s)
            if b > a:
                events.append((a, iv.delta_w))
                events.append((b, -iv.delta_w))
        events.sort(key=lambda e: (e[0], e[1]))
        run = peak = 0.0
        for _, d in events:
            run += d
            peak = max(peak, run)
        return peak
