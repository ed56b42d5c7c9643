"""Streaming metrics for the cluster simulator.

A :class:`MetricsRegistry` holds counters (monotone event counts),
gauges (instantaneous values), and histograms (value distributions),
and snapshots the counters and gauges into a time series sampled on
simulated-time boundaries (multiples of ``window_s``, the same tiling
:meth:`ClusterMeasurement.window_report` uses, so a metrics row and a
phase window describe the same slice of the run).

The simulator drives sampling from inside its event loop: gauges read
the live fleet state (queue depths per partition, awake-node count,
retry backlog, per-node modeled watts) *as of the loop's position* --
the standard sampled-at-processing-time semantics of a discrete-event
monitor.  Like tracing, the whole subsystem is opt-in: with no registry
attached the simulator pays one ``is None`` branch per hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Counter:
    """Monotone event count."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


@dataclass
class Gauge:
    """Last-written instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Full-resolution value distribution (simulation scale allows it)."""

    name: str
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        if not self.values:
            return 0.0
        return float(np.percentile(self.values, q))

    def stats(self) -> dict:
        if not self.values:
            return {"count": 0}
        arr = np.asarray(self.values, dtype=np.float64)
        return {
            "count": int(arr.size),
            "sum": float(arr.sum()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50.0)),
            "p95": float(np.percentile(arr, 95.0)),
        }


class MetricsRegistry:
    """Create-or-get metric store plus the sampled time series."""

    def __init__(self, window_s: float = 30.0) -> None:
        if not 0 < window_s < math.inf:
            raise ValueError(
                f"window_s must be positive and finite, got {window_s!r}"
            )
        self.window_s = window_s
        self.begin_run()

    def begin_run(self, run_id: str | None = None) -> None:
        """Fresh per-run state (the simulator calls this per schedule)."""
        self.run_id: str | None = run_id
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.samples: list[dict] = []

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name)
            return h

    def counters(self) -> list[Counter]:
        """Every counter registered so far, in creation order."""
        return list(self._counters.values())

    def sample(self, t_s: float) -> dict:
        """Snapshot every counter and gauge at simulated time ``t_s``."""
        row: dict = {"t_s": t_s}
        for name, counter in self._counters.items():
            row[name] = counter.value
        for name, gauge in self._gauges.items():
            row[name] = gauge.value
        self.samples.append(row)
        return row

    def truncate(self, t_s: float) -> None:
        """Rewind the series to ``t_s``: drop every later sample, and
        every gauge reads back its value in the last sample kept (one
        first written after it goes), so the exported gauges never
        describe a dropped sample."""
        samples = self.samples
        while samples and samples[-1]["t_s"] > t_s:
            samples.pop()
        kept = samples[-1] if samples else {}
        self._gauges = {
            name: Gauge(name, kept[name]) for name in self._gauges
            if name in kept
        }

    def to_dict(self) -> dict:
        return {
            "format": "repro-obs-metrics",
            "version": 1,
            "run_id": self.run_id,
            "window_s": self.window_s,
            "samples": self.samples,
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.stats()
                for name, h in sorted(self._histograms.items())
            },
        }
