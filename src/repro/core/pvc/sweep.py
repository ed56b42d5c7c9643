"""PVC sweep: run a workload under every setting, build the tradeoff curve.

This regenerates the paper's Figures 1-3: stock plus 5/10/15%
underclock x small/medium downgrade, each point's CPU energy and
response time becoming an :class:`OperatingPoint` on a
:class:`TradeoffCurve`.

The sweep uses the execute-once / replay-many pipeline: the workload
(ten TPC-H Q5 queries) is executed against the database once for the
*whole* sweep, and every operating point (and every protocol repeat)
replays the cached traces under its setting via vectorized playback.
It equals the historical pipeline -- one ``run_queries`` per operating
point, the reading reused across protocol repeats -- on every
database, a cold disk engine included;
``tests/core/reference_sweep.py`` keeps that pipeline as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import OperatingPoint
from repro.core.pvc.controller import PvcController
from repro.core.tradeoff import TradeoffCurve
from repro.hardware.cpu import PvcSetting, STOCK_SETTING
from repro.hardware.profiles import pvc_settings_grid
from repro.measurement.protocol import MeasurementProtocol
from repro.workloads.runner import WorkloadRunner


@dataclass
class PvcSweep:
    """Sweep a workload across PVC settings."""

    runner: WorkloadRunner
    queries: list[str]
    protocol: MeasurementProtocol | None = None

    def _run_workload(self):
        return self.runner.replay_queries(self.queries).total

    def measure_at(self, setting: PvcSetting) -> OperatingPoint:
        """Run the workload at one setting (paper's 5-run trimmed mean)."""
        controller = PvcController(self.runner.sut)
        with controller.applied(setting):
            if self.protocol is not None:
                sample = self.protocol.measure(self._run_workload)
                time_s, energy_j = sample.duration_s, sample.cpu_joules
            else:
                total = self._run_workload()
                time_s, energy_j = total.duration_s, total.cpu_joules
        return OperatingPoint(
            label=setting.describe(),
            time_s=time_s,
            energy_j=energy_j,
            setting=setting,
        )

    def run(self, settings: list[PvcSetting] | None = None) -> TradeoffCurve:
        """Measure stock plus every setting; return the tradeoff curve."""
        grid = settings if settings is not None else pvc_settings_grid(
            include_stock=False
        )
        baseline = self.measure_at(STOCK_SETTING)
        curve = TradeoffCurve(baseline=baseline)
        for setting in grid:
            if setting.is_stock:
                continue
            curve.add(self.measure_at(setting))
        return curve
