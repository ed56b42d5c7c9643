"""The paper's measurement protocol (Section 3.1).

"We run each workload five times and discard the top and bottom
readings, and average the middle three readings."  Measurement noise on
a real machine comes from OS jitter and the 1 Hz GUI-sampled EPU sensor;
we model it as seeded multiplicative Gaussian noise applied to each
run's readings, then apply the same trimmed-mean estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hardware.disk import DiskEnergy
from repro.hardware.system import RunMeasurement


@dataclass(frozen=True)
class ProtocolSample:
    """Trimmed-mean workload reading."""

    duration_s: float
    cpu_joules: float
    disk_joules: float
    wall_joules: float
    runs: int

    @property
    def avg_cpu_power_w(self) -> float:
        return self.cpu_joules / self.duration_s if self.duration_s else 0.0


class MeasurementProtocol:
    """Repeat-measure-trim-average, with a seeded noise model."""

    def __init__(self, runs: int = 5, drop_extremes: int = 1,
                 noise_sigma: float = 0.01, seed: int = 42):
        if runs < 1:
            raise ValueError("runs must be >= 1")
        if drop_extremes < 0 or 2 * drop_extremes >= runs:
            raise ValueError("cannot drop that many extremes")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.runs = runs
        self.drop_extremes = drop_extremes
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)

    def _noisy(self, value: float) -> float:
        if self.noise_sigma == 0:
            return value
        return value * (1.0 + self._rng.normal(0.0, self.noise_sigma))

    def measure(self, run_fn: Callable[[], RunMeasurement]
                ) -> ProtocolSample:
        """Measure ``run_fn`` with the paper's protocol: the
        deterministic simulation runs once and the noise model perturbs
        each of the ``runs`` readings."""
        readings = [run_fn()] * self.runs
        cpus = [self._noisy(r.cpu_joules) for r in readings]
        durations = [self._noisy(r.duration_s) for r in readings]
        disks = [self._noisy(r.disk_joules) for r in readings]
        walls = [self._noisy(r.wall_joules) for r in readings]
        return ProtocolSample(
            duration_s=self._trimmed_mean(durations),
            cpu_joules=self._trimmed_mean(cpus),
            disk_joules=self._trimmed_mean(disks),
            wall_joules=self._trimmed_mean(walls),
            runs=self.runs,
        )

    def _trimmed_mean(self, values: list[float]) -> float:
        ordered = sorted(values)
        k = self.drop_extremes
        kept = ordered[k: len(ordered) - k] if k else ordered
        return float(sum(kept) / len(kept))


def exact_protocol() -> MeasurementProtocol:
    """A noise-free protocol (single effective reading)."""
    return MeasurementProtocol(runs=1, drop_extremes=0, noise_sigma=0.0)


def combine_measurements(parts: list[RunMeasurement]) -> RunMeasurement:
    """Concatenate sequential run measurements into one."""
    if not parts:
        return RunMeasurement(
            duration_s=0.0, cpu_joules=0.0, memory_joules=0.0,
            disk_energy=DiskEnergy(0.0, 0.0), board_joules=0.0,
            gpu_joules=0.0, fan_joules=0.0, wall_joules=0.0,
        )
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total
