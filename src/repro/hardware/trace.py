"""Work-segment model: the interface between the DBMS and the hardware.

Executing a query (or a whole workload) against the database substrate
produces a :class:`Trace` -- an ordered list of *work segments* describing
what the machine has to do.  The :class:`~repro.hardware.system.SystemUnderTest`
then "plays" the trace under a given PVC setting, turning work into wall
time and energy.  This split is what lets a single execution be re-costed
under many processor settings without re-running the query.

Segment kinds
-------------
``CpuWork``
    Pure computation: a number of CPU cycles executed at some duty-cycle
    utilization.  Wall time scales inversely with CPU frequency, so this
    is the portion of a workload that stretches under PVC underclocking.
``DiskAccess``
    A batch of disk reads or writes (sequential or random).  Wall time
    comes from the disk model and is frequency-*invariant*; the CPU idles
    (or runs light overlap work) while it waits.
``ClientWork``
    Computation attributed to the client (JDBC-style row fetch,
    materialization, QED result splitting).  Semantically identical to
    ``CpuWork`` but typically tagged with a low utilization, which makes
    the DVFS governor drop to a lower p-state -- the effect behind QED's
    low-power result-handling phases.
``Idle``
    Fixed wall-clock idle time (think time, sleeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CpuWork:
    """``cycles`` of computation executed at ``utilization`` duty cycle.

    ``utilization`` is the fraction of wall time the CPU is busy while the
    segment runs; the remaining time is spent idle (pipeline gaps between
    request handling, lock waits, and so on).  Busy time is
    ``cycles / frequency`` and wall time is ``busy / utilization``.
    """

    cycles: float
    utilization: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")


@dataclass(frozen=True)
class ClientWork:
    """Client-side computation (fetch/materialize/split), low duty cycle."""

    cycles: float
    utilization: float = 0.35
    label: str = ""

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")


@dataclass(frozen=True)
class DiskAccess:
    """A batch of disk operations.

    ``num_ops`` read/write calls moving ``bytes_total`` bytes in total.
    ``sequential`` selects the sequential- or random-access cost model.
    ``cpu_overlap_utilization`` is the light CPU activity (interrupt
    handling, buffer management) that overlaps the I/O window.
    """

    num_ops: int
    bytes_total: float
    sequential: bool
    write: bool = False
    cpu_overlap_utilization: float = 0.10
    label: str = ""

    def __post_init__(self) -> None:
        if self.num_ops < 0:
            raise ValueError("num_ops must be non-negative")
        if self.bytes_total < 0:
            raise ValueError("bytes_total must be non-negative")
        if not 0.0 <= self.cpu_overlap_utilization <= 1.0:
            raise ValueError("cpu_overlap_utilization must be in [0, 1]")


@dataclass(frozen=True)
class Idle:
    """Fixed wall-clock idle period."""

    seconds: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")


Segment = CpuWork | ClientWork | DiskAccess | Idle


#: Segment-kind codes in a :class:`CompiledTrace`.
KIND_CPU = 0
KIND_CLIENT = 1
KIND_DISK = 2
KIND_IDLE = 3

#: One segment as a fixed-width record: the row format of the shared
#: columnar trace store (:mod:`repro.hardware.trace_store`).  Every
#: :class:`CompiledTrace` array maps onto one field, so a contiguous
#: span of rows in a memory-mapped container file *is* a compiled
#: trace -- no per-entry archive parsing on the read path.
ROW_DTYPE = np.dtype([
    ("kind", np.int8),
    ("cycles", np.float64),
    ("utilization", np.float64),
    ("num_ops", np.int64),
    ("bytes_total", np.float64),
    ("sequential", np.bool_),
    ("write", np.bool_),
    ("seconds", np.float64),
])


@dataclass(frozen=True)
class CompiledTrace:
    """A :class:`Trace` packed into structure-of-arrays form.

    One row per segment; which fields are meaningful depends on the
    row's ``kinds`` code (cycles/utilization for CPU and client work,
    num_ops/bytes_total/sequential/write/utilization for disk, seconds
    for idle).  This is the unit of *vectorized* playback: the
    :class:`~repro.hardware.system.SystemUnderTest` can re-cost the
    whole trace under any PVC setting with array operations instead of
    a per-segment Python loop -- compile once, replay many.
    """

    kinds: np.ndarray
    cycles: np.ndarray
    utilization: np.ndarray
    num_ops: np.ndarray
    bytes_total: np.ndarray
    sequential: np.ndarray
    write: np.ndarray
    seconds: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def from_trace(cls, trace: "Trace") -> "CompiledTrace":
        n = len(trace.segments)
        kinds = np.zeros(n, dtype=np.int8)
        cycles = np.zeros(n, dtype=np.float64)
        utilization = np.zeros(n, dtype=np.float64)
        num_ops = np.zeros(n, dtype=np.int64)
        bytes_total = np.zeros(n, dtype=np.float64)
        sequential = np.zeros(n, dtype=bool)
        write = np.zeros(n, dtype=bool)
        seconds = np.zeros(n, dtype=np.float64)
        labels: list[str] = []
        for i, seg in enumerate(trace.segments):
            labels.append(seg.label)
            if isinstance(seg, CpuWork):
                kinds[i] = KIND_CPU
                cycles[i] = seg.cycles
                utilization[i] = seg.utilization
            elif isinstance(seg, ClientWork):
                kinds[i] = KIND_CLIENT
                cycles[i] = seg.cycles
                utilization[i] = seg.utilization
            elif isinstance(seg, DiskAccess):
                kinds[i] = KIND_DISK
                num_ops[i] = seg.num_ops
                bytes_total[i] = seg.bytes_total
                sequential[i] = seg.sequential
                write[i] = seg.write
                utilization[i] = seg.cpu_overlap_utilization
            elif isinstance(seg, Idle):
                kinds[i] = KIND_IDLE
                seconds[i] = seg.seconds
            else:  # pragma: no cover - exhaustive over Segment
                raise TypeError(f"unknown segment type: {type(seg)!r}")
        return cls(
            kinds=kinds, cycles=cycles, utilization=utilization,
            num_ops=num_ops, bytes_total=bytes_total,
            sequential=sequential, write=write, seconds=seconds,
            labels=tuple(labels),
        )

    @classmethod
    def concat(cls, traces: "list[CompiledTrace]") -> "CompiledTrace":
        """Stack several compiled traces into one (fleet-scale playback).

        The result plays every input back-to-back; callers that need the
        per-input boundaries can reconstruct them from the input lengths
        (see :meth:`~repro.hardware.system.SystemUnderTest.run_compiled_batch`).
        """
        if not traces:
            return cls.from_trace(Trace())
        if len(traces) == 1:
            return traces[0]
        labels: list[str] = []
        for t in traces:
            labels.extend(t.labels)
        return cls(
            kinds=np.concatenate([t.kinds for t in traces]),
            cycles=np.concatenate([t.cycles for t in traces]),
            utilization=np.concatenate([t.utilization for t in traces]),
            num_ops=np.concatenate([t.num_ops for t in traces]),
            bytes_total=np.concatenate([t.bytes_total for t in traces]),
            sequential=np.concatenate([t.sequential for t in traces]),
            write=np.concatenate([t.write for t in traces]),
            seconds=np.concatenate([t.seconds for t in traces]),
            labels=tuple(labels),
        )

    # -- persistence: the row form the columnar trace store holds ---------

    def to_rows(self) -> np.ndarray:
        """Pack the trace into a contiguous :data:`ROW_DTYPE` record array.

        Labels are not part of the row format; the columnar store keeps
        them in its index so the data file stays fixed-width.
        """
        rows = np.empty(len(self), dtype=ROW_DTYPE)
        rows["kind"] = self.kinds
        rows["cycles"] = self.cycles
        rows["utilization"] = self.utilization
        rows["num_ops"] = self.num_ops
        rows["bytes_total"] = self.bytes_total
        rows["sequential"] = self.sequential
        rows["write"] = self.write
        rows["seconds"] = self.seconds
        return rows

    @classmethod
    def from_rows(
        cls, rows: np.ndarray, labels: tuple[str, ...]
    ) -> "CompiledTrace":
        """Rebuild a trace from a :data:`ROW_DTYPE` span (zero-copy).

        The field views returned by a structured array share its buffer,
        so traces built from a memory-mapped store alias one physical
        copy across every node (and every process) playing them back.
        """
        if len(labels) != len(rows):
            raise ValueError(
                f"label count {len(labels)} != row count {len(rows)}"
            )
        return cls(
            kinds=rows["kind"], cycles=rows["cycles"],
            utilization=rows["utilization"], num_ops=rows["num_ops"],
            bytes_total=rows["bytes_total"],
            sequential=rows["sequential"], write=rows["write"],
            seconds=rows["seconds"], labels=tuple(labels),
        )


@dataclass
class Trace:
    """An ordered sequence of work segments produced by one execution."""

    segments: list[Segment] = field(default_factory=list)
    _compiled: CompiledTrace | None = field(
        default=None, repr=False, compare=False
    )

    def add(self, segment: Segment) -> None:
        self.segments.append(segment)
        self._compiled = None

    def extend(self, other: "Trace") -> None:
        self.segments.extend(other.segments)
        self._compiled = None

    def compiled(self) -> CompiledTrace:
        """Packed structure-of-arrays form (memoized until mutated)."""
        if self._compiled is None or len(self._compiled) != len(self.segments):
            self._compiled = CompiledTrace.from_trace(self)
        return self._compiled

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def total_cpu_cycles(self) -> float:
        """All server-side CPU cycles in the trace."""
        return sum(s.cycles for s in self.segments if isinstance(s, CpuWork))

    @property
    def total_client_cycles(self) -> float:
        """All client-side CPU cycles in the trace."""
        return sum(
            s.cycles for s in self.segments if isinstance(s, ClientWork)
        )

    @property
    def total_disk_bytes(self) -> float:
        return sum(
            s.bytes_total for s in self.segments if isinstance(s, DiskAccess)
        )

    @property
    def total_disk_ops(self) -> int:
        return sum(
            s.num_ops for s in self.segments if isinstance(s, DiskAccess)
        )
