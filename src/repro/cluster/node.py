"""Per-node simulation state: a server wrapping a SystemUnderTest.

Each cluster node is the paper's machine (or any
:class:`~repro.hardware.system.SystemUnderTest`) pinned to its own PVC
operating point, with an optional per-node QED admission queue and a
sleep state for the consolidate policies.  The node tracks *when* things
happen (busy windows, wake transitions, sleep spans); *what* they cost
is resolved later by batched compiled-trace playback
(:mod:`repro.cluster.playback`).

Sleep model: a node alternates between asleep spans (billed at
``sleep_wall_w`` outside the hardware model) and awake spans.  Every
sleep-to-awake transition pays ``wake_latency_s`` of awake-idle power
during which the node cannot serve.  Dynamic re-consolidation uses the
full cycle -- wake under load, drain, re-sleep, wake again -- so spans
are lists, not a single one-shot transition.

Heterogeneous fleets: a :class:`NodeSpec` names its hardware profile
(``hw``, resolved through :data:`SUT_FACTORIES`), its PVC setting, a
relative ``capacity`` (how much backlog the consolidate policies let it
absorb), and its sleep/wake characteristics.  :func:`hetero_fleet`
expands per-group :class:`NodeGroup` descriptions into specs; nodes
sharing a ``(hw, setting)`` pair stay playback-equivalent, which is the
property batched playback exploits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.cluster.measure import ScheduledWork
from repro.cluster.faults import check_key, is_count, is_number
from repro.core.fleet import ServerSpec, server_from_sut
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue
from repro.hardware.cpu import PvcSetting, STOCK_SETTING, VoltageDowngrade
from repro.hardware.profiles import paper_sut
from repro.hardware.system import SystemUnderTest

#: Named hardware profiles a :class:`NodeSpec` may reference.  All are
#: variants of the calibrated paper machine; registering a new profile
#: is how a fleet mixes genuinely different hardware (the simulator
#: builds one SUT per node from its profile's factory).
SUT_FACTORIES: dict[str, Callable[[], SystemUnderTest]] = {
    "paper": paper_sut,
    "paper-nogpu": lambda: paper_sut(has_gpu=False),
    "paper-diskless": lambda: paper_sut(has_disk=False),
}


@dataclass(frozen=True)
class NodeSpec:
    """One node's static configuration."""

    name: str
    setting: PvcSetting = STOCK_SETTING
    sleep_wall_w: float = 3.5
    wake_latency_s: float = 30.0
    queue_policy: BatchPolicy | None = None
    hw: str = "paper"
    capacity: float = 1.0

    def __post_init__(self) -> None:
        if self.sleep_wall_w < 0:
            raise ValueError("sleep_wall_w must be non-negative")
        if self.wake_latency_s < 0:
            raise ValueError("wake_latency_s must be non-negative")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")


def uniform_fleet(
    count: int,
    setting: PvcSetting = STOCK_SETTING,
    sleep_wall_w: float = 3.5,
    wake_latency_s: float = 30.0,
    queue_policy: BatchPolicy | None = None,
    prefix: str = "node",
    hw: str = "paper",
    capacity: float = 1.0,
) -> list[NodeSpec]:
    """``count`` identical node specs (``node00``, ``node01``, ...)."""
    if count < 1:
        raise ValueError("a fleet needs at least one node")
    width = max(2, len(str(count - 1)))
    return [
        NodeSpec(
            name=f"{prefix}{i:0{width}d}",
            setting=setting,
            sleep_wall_w=sleep_wall_w,
            wake_latency_s=wake_latency_s,
            queue_policy=queue_policy,
            hw=hw,
            capacity=capacity,
        )
        for i in range(count)
    ]


@dataclass(frozen=True)
class NodeGroup:
    """A homogeneous slice of a heterogeneous fleet."""

    count: int
    prefix: str = "node"
    hw: str = "paper"
    setting: PvcSetting = STOCK_SETTING
    capacity: float = 1.0
    sleep_wall_w: float = 3.5
    wake_latency_s: float = 30.0
    queue_policy: BatchPolicy | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("a node group needs at least one node")
        if self.hw not in SUT_FACTORIES:
            raise ValueError(
                f"unknown hardware profile {self.hw!r}; "
                f"known: {sorted(SUT_FACTORIES)}"
            )


def hetero_fleet(groups: list[NodeGroup]) -> list[NodeSpec]:
    """Expand node groups into a flat spec list (names stay unique)."""
    if not groups:
        raise ValueError("a fleet needs at least one node group")
    specs: list[NodeSpec] = []
    owner: dict[str, int] = {}
    for i, group in enumerate(groups):
        for spec in uniform_fleet(
            group.count,
            setting=group.setting,
            sleep_wall_w=group.sleep_wall_w,
            wake_latency_s=group.wake_latency_s,
            queue_policy=group.queue_policy,
            prefix=group.prefix,
            hw=group.hw,
            capacity=group.capacity,
        ):
            if spec.name in owner:
                raise ValueError(
                    f"group {i}: 'prefix' {group.prefix!r} names node "
                    f"{spec.name!r} again (group {owner[spec.name]}); "
                    "node names must be unique"
                )
            owner[spec.name] = i
            specs.append(spec)
    return specs


#: The keys a fleet-file group may carry.
_GROUP_KEYS = frozenset((
    "count", "prefix", "hw", "underclock_pct", "downgrade", "capacity",
    "sleep_wall_w", "wake_latency_s",
))


def load_fleet(path: str) -> list[NodeSpec]:
    """Node specs from a fleet-description JSON file.

    Schema: ``{"groups": [{"count": 2, "prefix": "big", "hw": "paper",
    "underclock_pct": 0, "downgrade": "none", "capacity": 1.0,
    "sleep_wall_w": 3.5, "wake_latency_s": 30.0}, ...]}`` -- every key
    but ``count`` optional (``prefix`` defaults to ``g<i>n``).  Any
    malformed content is a ``ValueError`` naming the file, the group's
    index, the key, the offending value and what is allowed.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(
                "expected an object with a 'groups' list, got a "
                f"{type(doc).__name__}"
            )
        if set(doc) - {"groups"}:
            raise ValueError(f"unknown keys {sorted(set(doc) - {'groups'})}")
        groups = doc.get("groups")
        check_key("groups", groups, isinstance(groups, list) and bool(groups),
                  "a non-empty list")
        return hetero_fleet([_node_group(i, raw)
                             for i, raw in enumerate(groups)])
    except ValueError as exc:
        raise ValueError(f"fleet {path}: {exc}") from None


def _node_group(i: int, raw) -> NodeGroup:
    """Group ``i`` of a fleet file, type-checked key by key."""
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"expected an object, got {raw!r}")
        if set(raw) - _GROUP_KEYS:
            raise ValueError(
                f"unknown keys {sorted(set(raw) - _GROUP_KEYS)}"
            )
        if "count" not in raw:
            raise ValueError("missing key 'count'")
        count, prefix = raw["count"], raw.get("prefix", f"g{i}n")
        hw = raw.get("hw", "paper")
        underclock = raw.get("underclock_pct", 0.0)
        downgrade = raw.get("downgrade", "none")
        downgrades = [d.value for d in VoltageDowngrade]
        capacity = raw.get("capacity", 1.0)
        sleep_w = raw.get("sleep_wall_w", 3.5)
        wake_s = raw.get("wake_latency_s", 30.0)
        check_key("count", count, is_count(count), "a positive integer")
        check_key("prefix", prefix, isinstance(prefix, str), "a string")
        check_key("hw", hw, isinstance(hw, str) and hw in SUT_FACTORIES,
                  f"one of {sorted(SUT_FACTORIES)}")
        check_key("underclock_pct", underclock,
                  is_number(underclock) and 0 <= underclock < 100,
                  "a number in [0, 100)")
        check_key("downgrade", downgrade, downgrade in downgrades,
                  f"one of {downgrades}")
        check_key("capacity", capacity, is_number(capacity) and capacity > 0,
                  "a positive number")
        for key, value in (("sleep_wall_w", sleep_w),
                           ("wake_latency_s", wake_s)):
            check_key(key, value, is_number(value) and value >= 0,
                      "a non-negative number")
        return NodeGroup(
            count, prefix=prefix, hw=hw,
            setting=PvcSetting(float(underclock),
                               VoltageDowngrade(downgrade)),
            capacity=float(capacity), sleep_wall_w=float(sleep_w),
            wake_latency_s=float(wake_s),
        )
    except ValueError as exc:
        raise ValueError(f"group {i}: {exc}") from None


class TimelineAccounting:
    """Busy/wake/sleep accounting over ``scheduled`` work + span logs.

    Shared by the live :class:`SimulatedNode` and the frozen
    :class:`~repro.cluster.simulator.NodeTimeline` snapshot so
    schedule-time and playback-time accounting can never diverge.
    Expects ``spec``, ``sut``, ``scheduled``, ``started_awake``,
    ``sleep_log`` (``(start, end-or-None)`` spans, the open span being
    the current sleep), and ``wake_log`` (``(called, ready)`` spans).
    """

    @property
    def awake(self) -> bool:
        """Awake or in its wake transition (not serviceable until ready)."""
        return not (self.sleep_log and self.sleep_log[-1][1] is None)

    @property
    def wake_s(self) -> float:
        return sum(ready - called for called, ready in self.wake_log)

    def sleep_s(self, horizon_s: float) -> float:
        return sum(end - start for start, end in self.sleep_spans(horizon_s))

    def sleep_spans(self, horizon_s: float) -> list[tuple[float, float]]:
        """Closed sleep spans clamped to ``[0, horizon_s]`` (a
        crash-forced sleep may be logged at or past the horizon when
        trailing retries are dead-lettered; it then bills nothing)."""
        spans = []
        for start, end in self.sleep_log:
            if start >= horizon_s - 1e-12:
                continue
            end = horizon_s if end is None else min(end, horizon_s)
            if end > start:
                spans.append((start, end))
        return spans

    @property
    def re_sleeps(self) -> int:
        """Sleeps entered *after* serving awake (dynamic consolidation);
        starting the run asleep is provisioning, not a re-sleep."""
        return sum(1 for start, _ in self.sleep_log if start > 0.0)

    @property
    def wake_ready_s(self) -> float:
        """End of the latest wake transition (0.0 if none)."""
        return self.wake_log[-1][1] if self.wake_log else 0.0

    def modeled_power_w(self, now_s: float) -> float:
        """Instantaneous modeled wall power at ``now_s``.

        The same linear envelope playback integrates: sleep watts when
        asleep (or crashed -- the crash forces a sleep span), idle
        watts awake (wake transitions included), busy watts inside a
        busy window.  Read by the metrics sampler from inside the event
        loop, so it reflects the timeline *as scheduled so far* -- the
        standard discrete-event sampled-at-processing-time view.
        """
        if not self.awake:
            return self.spec.sleep_wall_w
        est = self.power_estimate()
        # Scheduled windows are time-ordered per node; walk from the
        # latest so samples near the loop's position stay O(1).
        for work in reversed(self.scheduled):
            if work.start_s <= now_s < work.end_s:
                return est.busy_wall_w
            if work.end_s <= now_s:
                break
        return est.idle_wall_w

    def power_estimate(self) -> ServerSpec:
        """Linear power envelope (Fan et al.) derived from the SUT.

        Memoized on the SUT object by sleep watts: the derivation
        replays component models, and every node of one (hardware,
        setting) pair shares the machine, so a pair derives its
        envelope once.  Callers read its wall watts only.
        """
        cache = getattr(self.sut, "_envelope_cache", None)
        if cache is None:
            cache = {}
            self.sut._envelope_cache = cache
        key = self.spec.sleep_wall_w
        if key not in cache:
            cache[key] = server_from_sut(self.sut, self.spec.hw, key)
        return cache[key]


class SimulatedNode(TimelineAccounting):
    """Mutable per-run state of one node.

    A node either starts the run awake or asleep; routers may wake it
    (paying ``wake_latency_s`` of unserviceable idle) and -- once it has
    drained -- put it back to sleep, any number of times.  Work routed
    to a waking node starts no earlier than the transition's end; work
    can never be assigned to a sleeping node at all.
    """

    def __init__(self, spec: NodeSpec, sut: SystemUnderTest):
        self.spec = spec
        self.sut = sut
        #: Active (non-empty) fault plan, installed by the simulator
        #: before the router's ``prepare``; survives ``reset`` so the
        #: router's node resets cannot drop it.  None: no faults.
        self.faults = None
        #: The ``(table, shard)`` pairs this node holds, installed by
        #: the simulator when a placement map is active (None: fully
        #: replicated, the seed model).  Survives ``reset`` like
        #: ``faults``; re-replication after a crash grows the set of
        #: the copy's destination mid-run.
        self.shards: set[tuple[str, int]] | None = None
        #: The ``placement.QuorumCounts`` told when ``awake`` changes.
        self.quorum = None
        self.reset(awake=True)

    # -- life cycle -------------------------------------------------------

    def reset(self, awake: bool = True) -> None:
        """Fresh per-run state (called by the router's ``prepare``)."""
        self.started_awake = awake
        self.sleep_log: list[tuple[float, float | None]] = (
            [] if awake else [(0.0, None)]
        )
        self.wake_log: list[tuple[float, float]] = []
        self.busy_until = 0.0
        self.scheduled: list[ScheduledWork] = []
        self.setting = self.spec.setting
        #: The simulator's index of the node's (hw, setting) pair; None
        #: until it looks the pair up, and again after each retune.
        self.pair: int | None = None
        self.setting_log: list[tuple[float, PvcSetting]] = [
            (0.0, self.spec.setting)
        ]
        self.queue = (
            QueryQueue(self.spec.queue_policy)
            if self.spec.queue_policy is not None else None
        )
        #: Fault state: when the node crashed (None = alive), every
        #: crash that fired, and every wake call a fault failed.
        self.crashed_s: float | None = None
        self.crash_log: list[float] = []
        self.failed_wakes: list[float] = []

    @property
    def ready_s(self) -> float:
        """Earliest time newly routed work could start (if awake)."""
        return max(self.busy_until, self.wake_ready_s)

    def can_serve(self, now_s: float) -> bool:
        """Routable at ``now_s``: neither crashed nor transiently
        unavailable.  (Being asleep is a separate, wakeable state.)"""
        if self.crashed_s is not None:
            return False
        if self.faults is not None and not self.faults.available(
            self.spec.name, now_s
        ):
            return False
        return True

    def wake(self, now_s: float) -> float:
        """Begin the wake transition (idempotent); returns ready time.

        Under a fault plan the attempt may *fail*: the node stays
        asleep (callers detect this via ``awake``) and the failure is
        logged.  Crashed nodes never wake until they recover.
        """
        if self.crashed_s is not None:
            return self.wake_ready_s
        if not self.awake:
            if self.faults is not None and not self.faults.wake_attempt(
                self.spec.name, now_s
            ):
                self.failed_wakes.append(now_s)
                return self.wake_ready_s
            start, _ = self.sleep_log[-1]
            if now_s < start:
                raise ValueError("cannot wake a node before it slept")
            self.sleep_log[-1] = (start, now_s)
            self.wake_log.append((now_s, now_s + self.spec.wake_latency_s))
            if self.quorum is not None:
                self.quorum.moved(self, 1)
        return self.wake_ready_s

    def set_setting(self, setting: PvcSetting, now_s: float) -> None:
        """Retune the node's PVC operating point from ``now_s`` on.

        The change is logged so playback can attribute idle time to the
        setting the node actually held; busy windows additionally stamp
        their setting at :meth:`assign` time (exact by construction).
        """
        if self.setting_log and now_s < self.setting_log[-1][0]:
            raise ValueError("setting changes must move forward in time")
        self.setting = setting
        self.pair = None
        self.setting_log.append((now_s, setting))

    def drained(self, now_s: float) -> bool:
        """No backlog, no queued work, nothing in flight at ``now_s``."""
        if self.queue is not None and len(self.queue) > 0:
            return False
        return self.awake and self.ready_s <= now_s + 1e-12

    def sleep(self, now_s: float) -> None:
        """Re-enter the sleep state (dynamic re-consolidation).

        Only a *drained* node may sleep -- the re-sleep-after-drain
        invariant: a sleeping node can never strand scheduled work.
        """
        if not self.awake:
            return
        if not self.drained(now_s):
            raise ValueError(
                f"cannot sleep node {self.spec.name!r} with pending work"
            )
        self.sleep_log.append((now_s, None))
        if self.quorum is not None:
            self.quorum.moved(self, -1)

    def crash(self, at_s: float) -> tuple[list[int], float]:
        """Kill the node at ``at_s``; returns ``(lost, wasted_s)``.

        Every busy window still open at the crash is lost: its queries'
        stream indices come back for requeueing, and the
        partial burn of a window the crash interrupted *mid-batch*
        (started but unfinished) is returned as wasted busy seconds.
        Per-node queue content is lost (and returned) too.  The node
        then reads as powered off -- a forced sleep span the timeline
        bills at ``sleep_wall_w`` -- and stays unroutable until
        :meth:`recover`.
        """
        if self.crashed_s is not None:
            return [], 0.0
        lost: list[int] = []
        wasted = 0.0
        kept: list[ScheduledWork] = []
        for work in self.scheduled:
            if work.end_s <= at_s + 1e-12:
                kept.append(work)
                continue
            lost.extend(work.queries)
            if work.start_s < at_s - 1e-12:
                wasted += at_s - work.start_s
        self.scheduled = kept
        self.busy_until = max((w.end_s for w in kept), default=0.0)
        if self.queue is not None and len(self.queue) > 0:
            batch = self.queue.flush(at_s)
            if batch is not None:
                lost.extend(q.query_id for q in batch.queries)
        if self.wake_log and self.wake_log[-1][1] > at_s:
            # Crashed mid-wake: the transition ends (unfinished) here.
            called, _ = self.wake_log[-1]
            self.wake_log[-1] = (called, at_s)
        if self.awake:
            self.sleep_log.append((at_s, None))
            if self.quorum is not None:
                self.quorum.moved(self, -1)
        self.crashed_s = at_s
        self.crash_log.append(at_s)
        return lost, wasted

    def recover(self, now_s: float) -> None:
        """Return a crashed node to the pool: powered off (its forced
        sleep span stays open) but wakeable and routable again."""
        if self.crashed_s is None:
            return
        if now_s < self.crashed_s:
            raise ValueError("cannot recover a node before it crashed")
        self.crashed_s = None

    def assign(
        self,
        trace_key: str,
        dispatch_s: float,
        service_s: float,
        queries: tuple[int, ...],
    ) -> ScheduledWork:
        """Schedule one busy window; returns the placed work.

        The window starts when the node is available: never before the
        dispatch time, the end of prior work, or -- the consolidate
        invariant -- the end of the wake transition.  The node's
        *current* PVC setting is stamped on the window so playback costs
        it under the setting its service time was computed for.
        """
        if self.crashed_s is not None:
            raise ValueError(
                f"cannot assign work to crashed node {self.spec.name!r}"
            )
        if not self.awake:
            raise ValueError(
                f"cannot assign work to sleeping node {self.spec.name!r}"
            )
        if service_s < 0:
            raise ValueError("service_s must be non-negative")
        start = max(dispatch_s, self.busy_until, self.wake_ready_s)
        stretch = 0.0
        if self.faults is not None:
            # Straggler fault: the window occupies longer than costed.
            factor = self.faults.slowdown(self.spec.name, start)
            if factor > 1.0:
                stretch = service_s * (factor - 1.0)
        work = ScheduledWork(
            trace_key=trace_key,
            start_s=start,
            end_s=start + service_s + stretch,
            queries=queries,
            setting=self.setting,
            stretch_s=stretch,
        )
        self.scheduled.append(work)
        self.busy_until = work.end_s
        return work

