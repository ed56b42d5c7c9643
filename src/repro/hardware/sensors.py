"""Sensor models: the paper's measurement instruments.

* :class:`EpuSensor` -- the ASUS EPU on-board CPU power sensor, read by
  graphically sampling the 6-Engine GUI once per second.  The paper
  computes "CPU joules = average sampled wattage x execution time"; this
  class reproduces that estimator, including its sampling bias on short
  or bursty runs.
* :class:`WallMeter` -- the Yokogawa WT210 wall-power meter.
* :class:`CurrentProbe` -- per-rail disk current measurement (5 V/12 V).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.disk import DiskEnergy
from repro.hardware.system import PowerInterval, RunMeasurement


def _cpu_power_at(timeline: list[PowerInterval], t: float) -> float | None:
    """CPU draw at time ``t`` (None if past the end of the timeline)."""
    elapsed = 0.0
    for interval in timeline:
        if t < elapsed + interval.duration_s:
            return interval.cpu_w
        elapsed += interval.duration_s
    return None


@dataclass
class SampledReading:
    """Result of a sampled measurement."""

    samples_w: list[float]
    duration_s: float

    @property
    def mean_power_w(self) -> float:
        if not self.samples_w:
            return 0.0
        return sum(self.samples_w) / len(self.samples_w)

    @property
    def joules(self) -> float:
        """The paper's estimator: mean sampled watts x duration."""
        return self.mean_power_w * self.duration_s


class EpuSensor:
    """1 Hz GUI-sampled CPU wattage (paper Sec. 3.1 workaround)."""

    def __init__(self, sample_period_s: float = 1.0, phase_s: float = 0.5):
        if sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if phase_s < 0:
            raise ValueError("phase_s must be non-negative")
        self.sample_period_s = sample_period_s
        self.phase_s = phase_s

    def read(self, run: RunMeasurement) -> SampledReading:
        if run.duration_s > 0 and not run.timeline:
            raise ValueError(
                "measurement carries no power timeline to sample; "
                "replayed runs need with_timeline=True "
                "(see SystemUnderTest.run_compiled)"
            )
        samples: list[float] = []
        t = self.phase_s
        while t < run.duration_s:
            power = _cpu_power_at(run.timeline, t)
            if power is None:
                break
            samples.append(power)
            t += self.sample_period_s
        return SampledReading(samples, run.duration_s)

    def sampling_error(self, run: RunMeasurement) -> float:
        """Relative error of the sampled estimate vs the exact integral."""
        exact = run.cpu_joules
        if exact == 0:
            return 0.0
        return (self.read(run).joules - exact) / exact


class WallMeter:
    """Exact wall-energy integration (the WT210 integrates internally)."""

    def read_joules(self, run: RunMeasurement) -> float:
        return run.wall_joules

    def read_avg_power_w(self, run: RunMeasurement) -> float:
        return run.avg_wall_power_w


class CurrentProbe:
    """Disk rail measurement: energy on the 5 V and 12 V lines."""

    def read(self, run: RunMeasurement) -> DiskEnergy:
        return run.disk_energy
