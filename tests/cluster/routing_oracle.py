"""The node-choice walks the policies used to write out one by one (test
oracle).

Each router, batch placement and re-replication endpoint choice once
restated the availability rule -- skip a crashed or unavailable node,
wake a sleeper, move on when the wake fails -- and most restated the
earliest-completion order.  ``repro.cluster.routing`` now routes them
all through ``first_serviceable`` and ``completion_key``.  These are the
eight former walks, kept verbatim as overrides of the current classes,
so a test can drive old and new on twin fleets and demand the same
node, the same ``wake()`` calls in the same order, and the same
rotation state.

It also keeps the two fleet scans the quorum checks used to make --
``sleep_would_break_quorum`` and ``quorum_wake_candidates``, which
``placement.QuorumCounts`` answers from per-shard counts -- and the
fault plan's hooks as they read before the plan was indexed by
``(node, kind)``: a fresh filtered list of the node's specs per call
(``FilteredFaultPlan``).
"""

from __future__ import annotations

import math

from repro.cluster import routing
from repro.cluster.faults import FaultPlan
from repro.cluster.placement import stable_hash
from repro.cluster.routing import Decision


def earliest_completion_node(nodes, now_s, service_by_node):
    """The node that would finish the query soonest (ties: node order)."""
    return min(
        nodes,
        key=lambda n: (
            max(now_s, n.ready_s) + service_by_node[n.spec.name]
        ),
    )


class RoundRobinRouter(routing.RoundRobinRouter):
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


class LeastLoadedRouter(routing.LeastLoadedRouter):
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


class HashSplitRouter(routing.HashSplitRouter):
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


class ConsolidateRouter(routing.ConsolidateRouter):
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


class DynamicConsolidateRouter(routing.DynamicConsolidateRouter,
                               ConsolidateRouter):
    """The current awake-set sizing over the former consolidate walk
    (``super().route`` resolves to the oracle above)."""


class AdaptivePvcRouter(routing.AdaptivePvcRouter):
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
        stepped = routing.ladder_step(level, projected, self.deadline_s,
                                      len(self.ladder),
                                      self.slack_threshold)
        if stepped != level:
            self._level[name] = stepped
            node.set_setting(self.ladder[stepped], now_s)
        return Decision(node, now_s)


class LeastLoadedPlacement(routing.LeastLoadedPlacement):
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


class HashSplitPlacement(routing.HashSplitPlacement):
    def place(self, batch, merged, now_s, service_by_node, nodes):
        if self.placement is not None:
            # Real shard routing: the simulator has already split the
            # dispatched batch by shard and narrowed ``nodes`` to the
            # owning replica set, so the remaining decision is which
            # live replica serves the piece -- the least-loaded one.
            return LeastLoadedPlacement._place_least_loaded(
                self, batch, now_s, service_by_node, nodes
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


def copy_endpoint(candidates, at_s: float):
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


# -- the quorum scans ---------------------------------------------------


def _holds(node, key: tuple[str, int]) -> bool:
    shards = getattr(node, "shards", None)
    return shards is not None and key in shards


def sleep_would_break_quorum(placement, node, fleet, now_s: float) -> bool:
    """Whether sleeping ``node`` leaves one of its shards with fewer
    than quorum awake serviceable replicas among the rest of ``fleet``.
    """
    if placement is None:
        return False
    shards = getattr(node, "shards", None)
    if not shards:
        return False
    for key in shards:
        quorum = placement.tables[key[0]].quorum
        awake = sum(
            1 for other in fleet
            if other is not node and other.awake
            and other.can_serve(now_s) and _holds(other, key)
        )
        if awake < quorum:
            return True
    return False


def quorum_wake_candidates(placement, fleet, now_s: float) -> list:
    """Sleeping serviceable nodes whose wake is needed to restore
    >= quorum awake replicas for some shard, in fleet order; each
    candidate is counted against the gaps it closes."""
    if placement is None:
        return []
    # Liveness is per node, not per (shard, node): ask each node once.
    serving = [
        node for node in fleet if node.awake and node.can_serve(now_s)
    ]
    deficits: dict[tuple[str, int], int] = {}
    for name in sorted(placement.tables):
        tp = placement.tables[name]
        for shard in range(tp.shards):
            key = (tp.table, shard)
            awake = sum(1 for node in serving if _holds(node, key))
            if awake < tp.quorum:
                deficits[key] = tp.quorum - awake
    if not deficits:
        return []
    candidates = []
    for node in fleet:
        if node.awake or not node.can_serve(now_s):
            continue
        closed = False
        for key, need in deficits.items():
            if need > 0 and _holds(node, key):
                deficits[key] = need - 1
                closed = True
        if closed:
            candidates.append(node)
    return candidates


# -- the fault plan's filtered lists ------------------------------------


class FilteredFaultPlan(FaultPlan):
    """The decision hooks over one spec list per node, filtered by kind
    on every call."""

    def __init__(self, specs=(), seed: int = 0):
        super().__init__(specs, seed)
        self._by_node: dict = {}
        for spec in self.specs:
            self._by_node.setdefault(spec.node, []).append(spec)

    def _for(self, node, kind):
        return [
            s for s in self._by_node.get(node, ()) if s.kind == kind
        ]

    def crashes_for(self, node):
        return sorted(self._for(node, "crash"), key=lambda s: s.at_s)

    def wake_attempt(self, node, now_s):
        for spec in self._for(node, "wake-failure"):
            if not spec.in_window(now_s):
                continue
            if spec.probability >= 1.0:
                return False
            if float(self._rng.uniform()) < spec.probability:
                return False
        return True

    def slowdown(self, node, t):
        factor = 1.0
        for spec in self._for(node, "straggler"):
            if spec.in_window(t):
                factor *= spec.slowdown
        return factor

    def available(self, node, t):
        return not any(
            spec.in_window(t) for spec in self._for(node, "unavailable")
        )
