"""Arrival streams for workload-management experiments.

QED's benefit depends on queries arriving over time (the queue must be
allowed to fill); the paper's experiments issue batches directly, but
its deployment story is an arrival stream at a master node.  This module
provides seeded arrival processes for the examples, benchmarks, and
tests -- including the *time-varying* load profiles (diurnal, ramp,
arbitrary rate schedules) the fleet's dynamic re-consolidation policies
are measured against.

Every generator returns one :class:`ArrivalStream` -- arrival times and
statement codes as numpy columns, never one Python object per arrival
-- that is sorted by ``time_s``, respects its ``start_s`` offset, and
is empty when the ``queries`` list is empty.  The shared
:func:`_finalize` helper enforces this uniformly, so any stream can
feed ``merge_arrivals`` or the cluster simulator without per-generator
caveats.  The columns hold exactly the floats the per-draw scalar
loops produced (``tests/workloads/reference_arrivals.py`` keeps those
loops as the oracle), so run ids pinned before the columnar form hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterable, Iterator, Sequence, overload

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One query arrival."""

    sql: str
    time_s: float


class ArrivalStream(Sequence[Arrival]):
    """An arrival stream as structure-of-arrays.

    ``times`` (float64 seconds) and ``sql_idx`` (int64 codes into the
    ``distinct`` statement tuple) are the stream; ``Arrival`` objects
    exist only when a caller indexes or iterates.  It behaves as an
    immutable ``Sequence[Arrival]``: ``len``, indexing, slicing (a
    stream over column views), iteration, ``+`` and ``==`` against any
    sequence of arrivals.  Construction validates the columns, so every
    stream the simulator sees has finite non-negative times and ``str``
    statements; order is *not* required here (``merge_arrivals`` and
    ``ClusterSimulator.schedule`` sort when needed).
    """

    __slots__ = ("times", "sql_idx", "distinct")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, times, sql_idx, distinct: Iterable[str]) -> None:
        try:
            self.times = np.asarray(times, dtype=np.float64)
            self.sql_idx = np.asarray(sql_idx, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"arrival columns are not numeric: {exc}"
            ) from None
        self.distinct = tuple(distinct)
        self._validate()

    def _validate(self) -> None:
        times, sql_idx, distinct = self.times, self.sql_idx, self.distinct
        if times.ndim != 1 or times.shape != sql_idx.shape:
            raise ValueError(
                "arrival columns differ in shape: times "
                f"{times.shape} vs sql_idx {sql_idx.shape}"
            )
        bad = ~np.isfinite(times) | (times < 0.0)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"arrival #{i} has time_s {times[i]!r}; arrival times "
                "must be finite and non-negative"
            )
        bad = (sql_idx < 0) | (sql_idx >= len(distinct))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"arrival #{i} has statement code {int(sql_idx[i])} "
                f"outside the {len(distinct)} distinct statements"
            )
        for d, sql in enumerate(distinct):
            if not isinstance(sql, str):
                users = np.flatnonzero(sql_idx == d)
                where = (
                    f"arrival #{int(users[0])}" if users.size
                    else f"distinct statement {d}"
                )
                raise ValueError(
                    f"{where} has non-str SQL {sql!r}"
                )
        if len(set(distinct)) != len(distinct):
            raise ValueError("distinct statements must be unique")

    @classmethod
    def coerce(cls, arrivals: Iterable[Arrival]) -> "ArrivalStream":
        """``arrivals`` as a stream: itself when it already is one,
        else one validated pass over ``(sql, time_s)`` objects."""
        if isinstance(arrivals, cls):
            return arrivals
        index_of: dict[str, int] = {}
        times: list[float] = []
        sql_idx: list[int] = []
        for i, arrival in enumerate(arrivals):
            try:
                sql, time_s = arrival.sql, arrival.time_s
                sql_idx.append(index_of.setdefault(sql, len(index_of)))
            except (AttributeError, TypeError):
                raise ValueError(
                    f"arrival #{i} is not an Arrival(sql, time_s): "
                    f"{arrival!r}"
                ) from None
            times.append(time_s)
        return cls(times, sql_idx, index_of)

    @classmethod
    def concat(cls, streams: Iterable[Iterable[Arrival]]) -> "ArrivalStream":
        """All ``streams`` end to end, over one shared statement table
        (statements keep their first-seen order)."""
        parts = [cls.coerce(s) for s in streams]
        if not parts:
            return cls((), (), ())
        index_of: dict[str, int] = {}
        codes = []
        for part in parts:
            remap = np.array(
                [index_of.setdefault(s, len(index_of))
                 for s in part.distinct],
                dtype=np.int64,
            )
            codes.append(remap[part.sql_idx])
        return cls(
            np.concatenate([p.times for p in parts]),
            np.concatenate(codes), index_of,
        )

    # -- Sequence[Arrival] --------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    @overload
    def __getitem__(self, key: int) -> Arrival: ...
    @overload
    def __getitem__(self, key: slice) -> "ArrivalStream": ...

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ArrivalStream(
                self.times[key], self.sql_idx[key], self.distinct
            )
        return Arrival(
            self.distinct[self.sql_idx[key]], float(self.times[key])
        )

    def __iter__(self) -> Iterator[Arrival]:
        return starmap(Arrival, zip(
            map(self.distinct.__getitem__, self.sql_idx.tolist()),
            self.times.tolist(),
        ))

    def __add__(self, other: Iterable[Arrival]) -> "ArrivalStream":
        return ArrivalStream.concat((self, other))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrivalStream):
            return (
                np.array_equal(self.times, other.times)
                and np.array_equal(self._sql_column(), other._sql_column())
            )
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        span = (
            f", {self.times[0]:.6g}..{self.times[-1]:.6g} s"
            if len(self) else ""
        )
        return (
            f"ArrivalStream({len(self)} arrivals, "
            f"{len(self.distinct)} distinct{span})"
        )

    # -- column views the simulator and the fingerprint read ----------------

    def _sql_column(self) -> np.ndarray:
        return np.array(self.distinct, dtype=object)[self.sql_idx]

    @property
    def is_sorted(self) -> bool:
        """Whether ``times`` is non-decreasing."""
        return bool((self.times[1:] >= self.times[:-1]).all())

    def first_seen(self) -> np.ndarray:
        """Codes of the statements that occur, in first-arrival order."""
        used = np.flatnonzero(
            np.bincount(self.sql_idx, minlength=len(self.distinct))
        )
        # Streams that cycle through their statements show every one of
        # them within a short prefix; only stragglers pay for the sort.
        head = list(dict.fromkeys(
            self.sql_idx[:8 * len(self.distinct) + 64].tolist()
        ))
        if len(head) == len(used):
            return np.array(head, dtype=np.int64)
        _, first = np.unique(self.sql_idx, return_index=True)
        return used[np.argsort(first, kind="stable")]

    def in_time_order(self) -> "ArrivalStream":
        """The stream sorted by ``time_s`` (stable: simultaneous
        arrivals keep their order) over exactly the statements that
        occur, in first-arrival order -- the canonical form
        ``ClusterSimulator.schedule`` works on.  Returns ``self`` when
        it already is in that form."""
        stream = self
        if not stream.is_sorted:
            order = np.argsort(stream.times, kind="stable")
            stream = ArrivalStream(
                stream.times[order], stream.sql_idx[order], stream.distinct
            )
        seen = stream.first_seen()
        if np.array_equal(seen, np.arange(len(stream.distinct))):
            return stream
        remap = np.full(len(stream.distinct), -1, dtype=np.int64)
        remap[seen] = np.arange(len(seen))
        return ArrivalStream(
            stream.times, remap[stream.sql_idx],
            [stream.distinct[d] for d in seen.tolist()],
        )


def _encode(queries: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Statement codes and the distinct-statement table (first-seen
    order) for one ``queries`` list."""
    try:
        index_of = {sql: d for d, sql in enumerate(dict.fromkeys(queries))}
    except TypeError:  # unhashable, so certainly not a str
        at = next(i for i, q in enumerate(queries) if not isinstance(q, str))
        raise ValueError(
            f"queries[{at}] is not a str: {queries[at]!r}"
        ) from None
    sql_idx = np.fromiter(
        map(index_of.__getitem__, queries), np.int64, count=len(queries)
    )
    return sql_idx, tuple(index_of)


def _accumulate(start_s: float, gaps: np.ndarray) -> np.ndarray:
    """``start_s + gaps[0] + gaps[1] + ...`` as running sums, added in
    exactly the order a scalar ``now += gap`` loop adds them."""
    seeded = np.empty(len(gaps) + 1, dtype=np.float64)
    seeded[0] = start_s
    seeded[1:] = gaps
    return np.cumsum(seeded)[1:]


def _finalize(times: np.ndarray, sql_idx: np.ndarray,
              distinct: Iterable[str], start_s: float) -> ArrivalStream:
    """Shared stream validation: sorted, never before ``start_s``.

    Each generator funnels its output through here so the whole module
    upholds one contract (the cluster event loop and ``merge_arrivals``
    both rely on it).  These are real checks, not ``assert``s: they
    must survive ``python -O``.
    """
    stream = ArrivalStream(times, sql_idx, distinct)
    if not stream.is_sorted:
        raise ValueError("generator produced an unsorted stream")
    if len(stream) and stream.times[0] < start_s:
        raise ValueError("generator produced arrivals before start_s")
    return stream


def poisson_arrivals(queries: list[str], mean_interarrival_s: float,
                     seed: int = 0, start_s: float = 0.0,
                     rng: np.random.Generator | None = None) -> ArrivalStream:
    """Exponential inter-arrival times (a Poisson process).

    Passing ``rng`` threads one shared generator through arrivals (and,
    via :meth:`FaultPlan.begin_run`, fault outcomes) so a whole run's
    randomness hangs off a single seed; ``seed`` is ignored then.  One
    sized draw consumes the generator exactly as one scalar draw per
    query would, so the times -- and the state ``rng`` is left in --
    are those of the per-draw loop.
    """
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    sql_idx, distinct = _encode(queries)
    gaps = rng.exponential(mean_interarrival_s, size=len(queries))
    return _finalize(_accumulate(start_s, gaps), sql_idx, distinct, start_s)


def uniform_arrivals(queries: list[str], interarrival_s: float,
                     start_s: float = 0.0) -> ArrivalStream:
    """Evenly spaced arrivals (closed-loop clients with fixed think
    time, the deterministic limit of the Poisson stream)."""
    if interarrival_s <= 0:
        raise ValueError("interarrival_s must be positive")
    sql_idx, distinct = _encode(queries)
    times = start_s + np.arange(1, len(queries) + 1) * interarrival_s
    return _finalize(times, sql_idx, distinct, start_s)


def bursty_arrivals(queries: list[str], burst_size: int,
                    burst_gap_s: float, within_burst_s: float = 0.01,
                    start_s: float = 0.0) -> ArrivalStream:
    """Clients arriving in bursts separated by quiet gaps -- the shape
    under which a threshold batch policy fires immediately."""
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    if burst_gap_s < 0 or within_burst_s < 0:
        raise ValueError("gaps must be non-negative")
    sql_idx, distinct = _encode(queries)
    position = np.arange(len(queries))
    opens_burst = (position > 0) & (position % burst_size == 0)
    gaps = np.where(opens_burst, burst_gap_s, within_burst_s)
    return _finalize(_accumulate(start_s, gaps), sql_idx, distinct, start_s)


# -- time-varying load profiles -------------------------------------------


@dataclass(frozen=True)
class RateSchedule:
    """A deterministic arrival-rate curve lambda(t), queries/second.

    ``rate`` maps *elapsed* seconds (relative to the stream's
    ``start_s``) to an instantaneous rate; ``peak_rate`` must bound it
    from above over the horizon (the thinning envelope).  Schedules are
    plain data so routers can look *ahead* of real time -- the
    dynamic-consolidation policy pre-wakes nodes ``wake_latency_s``
    before a scheduled peak by evaluating the same curve the generator
    sampled from.
    """

    rate: Callable[[float], float]
    peak_rate: float
    horizon_s: float

    def __post_init__(self) -> None:
        if self.peak_rate <= 0:
            raise ValueError("peak_rate must be positive")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")

    def rate_at(self, elapsed_s: float) -> float:
        """lambda at ``elapsed_s``, clamped to [0, peak_rate]."""
        return min(max(0.0, self.rate(elapsed_s)), self.peak_rate)

    def expected_count(self, resolution: int = 10_000) -> float:
        """Integral of lambda over the horizon (trapezoidal)."""
        ts = np.linspace(0.0, self.horizon_s, resolution)
        rates = np.array([self.rate_at(float(t)) for t in ts])
        dt = ts[1:] - ts[:-1]
        return float(((rates[1:] + rates[:-1]) / 2.0 * dt).sum())


def diurnal_schedule(base_rate: float, peak_rate: float,
                     period_s: float, horizon_s: float,
                     phase_s: float = 0.0) -> RateSchedule:
    """Sinusoidal day/night curve: troughs at ``base_rate``, crests at
    ``peak_rate``, one full cycle every ``period_s`` seconds.

    ``phase_s`` shifts the curve; with the default the stream *starts*
    at the trough (night), so a run opens in the consolidated regime
    and rides up into the peak.
    """
    if not 0.0 <= base_rate <= peak_rate:
        raise ValueError("need 0 <= base_rate <= peak_rate")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    mid = (base_rate + peak_rate) / 2.0
    amp = (peak_rate - base_rate) / 2.0

    def rate(t: float) -> float:
        return mid - amp * math.cos(2.0 * math.pi * (t + phase_s) / period_s)

    return RateSchedule(rate=rate, peak_rate=peak_rate, horizon_s=horizon_s)


def ramp_schedule(start_rate: float, end_rate: float,
                  horizon_s: float) -> RateSchedule:
    """Linear ramp from ``start_rate`` to ``end_rate`` over the horizon
    (a morning ramp-up, or a drain-down when ``end_rate`` is lower)."""
    if start_rate < 0 or end_rate < 0:
        raise ValueError("rates must be non-negative")
    if max(start_rate, end_rate) == 0:
        raise ValueError("at least one endpoint rate must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")

    def rate(t: float) -> float:
        return start_rate + (end_rate - start_rate) * (t / horizon_s)

    return RateSchedule(rate=rate, peak_rate=max(start_rate, end_rate),
                        horizon_s=horizon_s)


def piecewise_schedule(
    phases: Sequence[tuple[float, float]],
) -> RateSchedule:
    """Stepwise schedule from ``(duration_s, rate)`` phases, e.g.
    ``[(60, 2.0), (120, 20.0), (60, 2.0)]`` = low / peak / low."""
    if not phases:
        raise ValueError("need at least one phase")
    for duration, rate in phases:
        if duration <= 0:
            raise ValueError("phase durations must be positive")
        if rate < 0:
            raise ValueError("phase rates must be non-negative")
    peak = max(rate for _, rate in phases)
    if peak == 0:
        raise ValueError("at least one phase rate must be positive")
    edges: list[float] = [0.0]
    for duration, _ in phases:
        edges.append(edges[-1] + duration)

    def rate_fn(t: float) -> float:
        for (duration, rate), lo in zip(phases, edges):
            if t < lo + duration:
                return rate
        return phases[-1][1]

    return RateSchedule(rate=rate_fn, peak_rate=peak,
                        horizon_s=edges[-1])


def rate_schedule_arrivals(queries: list[str], schedule: RateSchedule,
                           seed: int = 0, start_s: float = 0.0,
                           rng: np.random.Generator | None = None,
                           ) -> ArrivalStream:
    """Nonhomogeneous Poisson arrivals following ``schedule``, by
    thinning (Lewis & Shedler): candidate events fire at ``peak_rate``
    and survive with probability ``lambda(t) / peak_rate``.

    The number of arrivals is random with mean ``integral of lambda``
    over the horizon; SQL statements are assigned by cycling through
    ``queries`` in order, so any non-empty ``queries`` list serves any
    schedule.  Seeded and sorted, hence ``merge_arrivals``-compatible.
    An explicit ``rng`` (shared, e.g., with a fault plan) overrides
    ``seed``.  The candidate draws stay one at a time -- each
    acceptance draw is interleaved with the next gap on one generator,
    so a sized draw would leave a shared ``rng`` in a different state
    -- but only the accepted offsets are kept, as one column.
    """
    if not queries:
        return ArrivalStream((), (), ())
    if rng is None:
        rng = np.random.default_rng(seed)
    code_of, distinct = _encode(queries)
    accepted: list[float] = []
    elapsed = 0.0
    while True:
        elapsed += float(rng.exponential(1.0 / schedule.peak_rate))
        if elapsed > schedule.horizon_s:
            break
        if rng.uniform() * schedule.peak_rate <= schedule.rate_at(elapsed):
            accepted.append(elapsed)
    sql_idx = code_of[np.arange(len(accepted)) % len(queries)]
    times = start_s + np.array(accepted, dtype=np.float64)
    return _finalize(times, sql_idx, distinct, start_s)


def ramp_arrivals(queries: list[str], start_rate: float, end_rate: float,
                  horizon_s: float, seed: int = 0, start_s: float = 0.0,
                  rng: np.random.Generator | None = None) -> ArrivalStream:
    """Linearly ramping arrival stream (see :func:`ramp_schedule`)."""
    return rate_schedule_arrivals(
        queries, ramp_schedule(start_rate, end_rate, horizon_s),
        seed=seed, start_s=start_s, rng=rng,
    )


def merge_arrivals(*streams: Iterable[Arrival]) -> ArrivalStream:
    """Time-ordered merge of several tenants' arrival streams.

    Each input stream (an :class:`ArrivalStream` or any sequence of
    :class:`Arrival`) must already be sorted by ``time_s`` (every
    generator in this module produces sorted streams).  The merge is
    *stable* for ties: simultaneous arrivals keep the order of the
    stream arguments, and within one stream their original order --
    which makes multi-tenant cluster scenarios reproducible.
    """
    parts = [ArrivalStream.coerce(stream) for stream in streams]
    if not all(part.is_sorted for part in parts):
        raise ValueError("each stream must be sorted by time_s")
    # End to end the arrivals sit in (stream argument, in-stream)
    # order, which is exactly the tie order a stable sort preserves.
    return ArrivalStream.concat(parts).in_time_order()
