"""Energy/performance metrics: EDP, operating points, iso-EDP curves.

The paper's central metric is the Energy Delay Product (EDP = Joules x
seconds).  In the ratio plane of Figures 2/3 (energy ratio on X,
response-time ratio on Y, stock at (1,1)), constant-EDP points satisfy
``t = 1/e``; operating points *below* that curve are "interesting" --
they save a larger share of energy than they cost in time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cpu import PvcSetting


def edp(energy_j: float, time_s: float) -> float:
    """Energy Delay Product."""
    if energy_j < 0 or time_s < 0:
        raise ValueError("energy and time must be non-negative")
    return energy_j * time_s


@dataclass(frozen=True)
class OperatingPoint:
    """One measured configuration: a label/setting plus time and energy."""

    label: str
    time_s: float
    energy_j: float
    setting: PvcSetting | None = None

    def __post_init__(self) -> None:
        if self.time_s <= 0 or self.energy_j < 0:
            raise ValueError("time must be positive, energy non-negative")

    @property
    def edp(self) -> float:
        return edp(self.energy_j, self.time_s)

    def ratios_vs(self, base: "OperatingPoint") -> "RatioPoint":
        return RatioPoint(
            label=self.label,
            time_ratio=self.time_s / base.time_s,
            energy_ratio=(
                self.energy_j / base.energy_j if base.energy_j else 0.0
            ),
            setting=self.setting,
        )


@dataclass(frozen=True)
class RatioPoint:
    """An operating point normalized to the stock/baseline point."""

    label: str
    time_ratio: float
    energy_ratio: float
    setting: PvcSetting | None = None

    @property
    def edp_ratio(self) -> float:
        return self.time_ratio * self.energy_ratio

    @property
    def edp_delta(self) -> float:
        """Fractional EDP change vs baseline (negative = improvement)."""
        return self.edp_ratio - 1.0

    @property
    def below_iso_edp(self) -> bool:
        """True when the point beats the constant-EDP curve ("interesting")."""
        return self.edp_ratio < 1.0

    @property
    def energy_delta(self) -> float:
        return self.energy_ratio - 1.0

    @property
    def time_delta(self) -> float:
        return self.time_ratio - 1.0


def iso_edp_curve(energy_ratios: list[float]) -> list[tuple[float, float]]:
    """(energy ratio, time ratio) samples of the constant-EDP curve."""
    points = []
    for e in energy_ratios:
        if e <= 0:
            raise ValueError("energy ratios must be positive")
        points.append((e, 1.0 / e))
    return points


def pareto_front(points: list[RatioPoint]) -> list[RatioPoint]:
    """Points not dominated in (time, energy) -- lower is better in both."""
    front: list[RatioPoint] = []
    for p in points:
        dominated = any(
            (q.time_ratio <= p.time_ratio and q.energy_ratio <= p.energy_ratio
             and (q.time_ratio < p.time_ratio
                  or q.energy_ratio < p.energy_ratio))
            for q in points
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: p.energy_ratio)
