"""Naive PVC sweep (test oracle).

This is the pipeline ``repro.core.pvc.sweep.PvcSweep`` ran before
execute-once / replay-many: the workload is parsed, planned and
executed with ``run_queries`` once per operating point.  The replay
sweep must produce the same curve.
"""

from __future__ import annotations

from repro.core.metrics import OperatingPoint
from repro.core.pvc.controller import PvcController
from repro.core.tradeoff import TradeoffCurve
from repro.hardware.cpu import STOCK_SETTING
from repro.hardware.profiles import pvc_settings_grid
from repro.workloads.runner import WorkloadRunner


def reference_sweep(runner: WorkloadRunner,
                    queries: list[str]) -> TradeoffCurve:
    """Stock plus every grid setting, each one fresh ``run_queries``."""

    def point(setting) -> OperatingPoint:
        with PvcController(runner.sut).applied(setting):
            total = runner.run_queries(queries).total
        return OperatingPoint(
            label=setting.describe(), time_s=total.duration_s,
            energy_j=total.cpu_joules, setting=setting,
        )

    curve = TradeoffCurve(baseline=point(STOCK_SETTING))
    for setting in pvc_settings_grid(include_stock=False):
        curve.add(point(setting))
    return curve
