"""Deterministic fault injection for the cluster simulator.

The paper's energy claims are measured on a fleet where every node
wakes on command and finishes every batch; aggressive consolidation is
precisely the regime where a crash or a failed wake costs the most,
because the awake set is already minimal.  This module defines the
*plan* side of the fault-and-recovery layer: a seeded
:class:`FaultPlan` composed of :class:`FaultSpec` entries that the
simulator consults at every wake/assign/playback decision, plus the
:class:`RetryPolicy` that governs how lost work re-enters the schedule.

Fault kinds
-----------
``crash``
    The node dies at ``at_s`` (optionally recovering, powered off but
    wakeable again, at ``recover_s``).  In-flight busy windows and any
    per-node queue content are lost and requeued through the retry
    policy; partial work burnt before the crash is charged to the
    ``FaultReport`` as wasted joules.
``wake-failure``
    A wake call inside ``[start_s, end_s)`` fails with ``probability``
    (1.0 = always): the node stays asleep and the router must fall
    back.  Probabilistic outcomes draw from the plan's seeded RNG, so
    runs are reproducible.
``straggler``
    Busy windows placed on the node inside ``[start_s, end_s)`` run
    ``slowdown`` times longer than costed; the stretch is modeled as
    degraded occupancy (billed at awake-idle watts in playback).
``unavailable``
    Transient unresponsiveness over ``[start_s, end_s)``: routers and
    placements skip the node, but nothing in flight is lost.

Under an active :class:`~repro.cluster.placement.PlacementMap`, a
crash additionally triggers **re-replication**: every shard the dead
node held that falls below its replication target is copied from a
live replica to a node not yet holding it, as compiled-trace work
billed in joules on *both* endpoints and reported on the run's
:class:`~repro.cluster.measure.FaultReport` (``re_replications``,
``copy_s``, ``copy_joules``).

An **empty plan injects nothing and costs nothing**: every fault hook
in the node/simulator/router layers fast-paths out without touching
the RNG or perturbing any float, so schedules and energies are
identical to a run without a plan (the identity guard in
``tests/cluster/test_faults.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

#: The fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = ("crash", "wake-failure", "straggler", "unavailable")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault on one node.

    The fields used depend on ``kind``: crashes use ``at_s`` and
    ``recover_s``; wake failures use ``probability`` over
    ``[start_s, end_s)``; stragglers use ``slowdown`` over
    ``[start_s, end_s)``; unavailability uses only the window.
    ``end_s=None`` means "until the end of the run".
    """

    kind: str
    node: str
    at_s: float = 0.0
    recover_s: float | None = None
    start_s: float = 0.0
    end_s: float | None = None
    probability: float = 1.0
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not self.node:
            raise ValueError("a fault needs a target node name")
        if self.kind == "crash":
            if self.at_s < 0:
                raise ValueError(
                    f"crash at_s must be non-negative, got {self.at_s!r}"
                )
            if self.recover_s is not None and self.recover_s <= self.at_s:
                raise ValueError(
                    f"recover_s must be after at_s={self.at_s!r}, "
                    f"got {self.recover_s!r}"
                )
        else:
            if self.start_s < 0:
                raise ValueError(
                    f"start_s must be non-negative, got {self.start_s!r}"
                )
            if self.end_s is not None and self.end_s <= self.start_s:
                raise ValueError(
                    f"end_s must be after start_s={self.start_s!r}, "
                    f"got {self.end_s!r}"
                )
        if self.kind == "wake-failure":
            if not 0.0 < self.probability <= 1.0:
                raise ValueError(
                    f"probability must be in (0, 1], "
                    f"got {self.probability!r}"
                )
        if self.kind == "straggler" and self.slowdown <= 1.0:
            raise ValueError(f"slowdown must be > 1, got {self.slowdown!r}")

    def in_window(self, t: float) -> bool:
        """Whether ``t`` falls inside the fault's active window."""
        end = math.inf if self.end_s is None else self.end_s
        return self.start_s <= t < end

    def to_dict(self) -> dict:
        """The ``--faults plan.json`` entry shape (round-trips through
        :meth:`FaultPlan.from_dict`)."""
        return asdict(self)


class FaultPlan:
    """A seeded, composable set of faults for one simulated run.

    The plan owns the run's fault RNG (wake-failure coin flips); the
    simulator calls :meth:`begin_run` before each ``schedule()`` so the
    same plan replayed over the same stream produces the same outcomes.
    Passing an external generator to :meth:`begin_run` threads one
    RNG through arrivals and faults end-to-end instead (the
    determinism-audit path); the plan then *keeps* consuming that
    stream across runs rather than reseeding.
    """

    def __init__(self, specs=(), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self._external_rng: np.random.Generator | None = None
        self._by_node: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self._by_node.setdefault(spec.node, []).append(spec)
        self.begin_run()

    @property
    def empty(self) -> bool:
        return not self.specs

    def begin_run(self, rng: np.random.Generator | None = None) -> None:
        """Reset per-run RNG state (fresh stream unless one is shared)."""
        if rng is not None:
            self._external_rng = rng
        if self._external_rng is not None:
            self._rng = self._external_rng
        else:
            self._rng = np.random.default_rng(self.seed)

    def _for(self, node: str, kind: str) -> list[FaultSpec]:
        return [
            s for s in self._by_node.get(node, ()) if s.kind == kind
        ]

    # -- the decision hooks ------------------------------------------------

    def crashes_for(self, node: str) -> list[FaultSpec]:
        """The node's crash specs, in time order."""
        return sorted(self._for(node, "crash"), key=lambda s: s.at_s)

    def wake_attempt(self, node: str, now_s: float) -> bool:
        """Outcome of one wake call at ``now_s`` (True = success).

        Probabilistic failures draw from the plan's RNG once per
        *matching* attempt, so outcomes are deterministic given the
        call sequence -- which the simulator's event order fixes.
        """
        for spec in self._for(node, "wake-failure"):
            if not spec.in_window(now_s):
                continue
            if spec.probability >= 1.0:
                return False
            if float(self._rng.uniform()) < spec.probability:
                return False
        return True

    def slowdown(self, node: str, t: float) -> float:
        """Service-time multiplier on ``node`` at ``t`` (1.0 = healthy);
        overlapping straggler windows compound."""
        factor = 1.0
        for spec in self._for(node, "straggler"):
            if spec.in_window(t):
                factor *= spec.slowdown
        return factor

    def available(self, node: str, t: float) -> bool:
        """False inside any transient-unavailability window."""
        return not any(
            spec.in_window(t) for spec in self._for(node, "unavailable")
        )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Build a plan from the ``--faults plan.json`` schema:
        ``{"seed": 0, "faults": [{"kind": "crash", "node": "node01",
        "at_s": 30.0}, ...]}``.

        A malformed document is a ``ValueError`` naming the fault's
        index, the key and the offending value, raised here rather
        than as a ``TypeError`` once scheduling compares the value.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                "expected an object with a 'faults' list, got a "
                f"{type(doc).__name__}"
            )
        faults = doc.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError(f"'faults' must be a list, got {faults!r}")
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"'seed' must be an integer, got {seed!r}")
        return cls([_spec_from_dict(i, raw) for i, raw in enumerate(faults)],
                   seed=seed)

    def to_dict(self) -> dict:
        """The plan back in its JSON schema (fingerprinting, exports)."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }


def _spec_from_dict(i: int, raw) -> FaultSpec:
    """Fault ``i`` of a plan document, type-checked key by key."""
    if not isinstance(raw, dict):
        raise ValueError(f"fault {i}: expected an object, got {raw!r}")
    known = {f.name for f in fields(FaultSpec)}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"fault {i}: unknown keys {sorted(extra)}")
    for key in ("kind", "node"):
        if key not in raw:
            raise ValueError(f"fault {i}: missing key {key!r}")
        if not isinstance(raw[key], str):
            raise ValueError(
                f"fault {i}: {key!r} must be a string, got {raw[key]!r}"
            )
    for key, value in raw.items():
        if key in ("kind", "node") or (
            value is None and key in ("recover_s", "end_s")
        ):
            continue
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError(
                f"fault {i}: {key!r} must be a finite number, "
                f"got {value!r}"
            )
    try:
        return FaultSpec(**raw)
    except ValueError as exc:
        raise ValueError(f"fault {i}: {exc}") from None


def load_fault_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file; any malformed
    content is a ``ValueError`` that names the file."""
    with open(path) as handle:
        try:
            return FaultPlan.from_dict(json.load(handle))
        except ValueError as exc:
            raise ValueError(f"fault plan {path}: {exc}") from None


@dataclass(frozen=True)
class RetryPolicy:
    """How lost or unplaceable queries re-enter the schedule.

    Each retry attempt waits ``backoff_s * multiplier**(attempt - 1)``
    of added queueing delay before re-dispatch; after ``max_attempts``
    failed attempts the query is dead-lettered -- shed with accounting,
    so it still counts as the hardest possible SLA miss.
    """

    max_attempts: int = 3
    backoff_s: float = 1.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_s * self.multiplier ** (attempt - 1)

    def exhausted(self, attempt: int) -> bool:
        """True once ``attempt`` retries have all failed."""
        return attempt >= self.max_attempts
