"""PVC sweep points on a selection workload."""

from repro.core.pvc.sweep import PvcSweep
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_query


class TestSweepPoints:
    def test_measure_at_single_setting(self, mysql_db, sut):
        runner = WorkloadRunner(mysql_db, sut)
        sweep = PvcSweep(runner, [selection_query(3)])
        point = sweep.measure_at(PvcSetting(5, VoltageDowngrade.MEDIUM))
        assert point.setting.underclock_pct == 5
        assert point.energy_j > 0
        # measure_at restores the previous setting
        assert sut.setting.is_stock

    def test_setting_a_is_best_by_edp(self, mysql_db, sut):
        """Setting A (5%/medium) is the best-EDP point -- the paper's
        Figure 1 conclusion."""
        runner = WorkloadRunner(mysql_db, sut)
        curve = PvcSweep(runner, [selection_query(4)]).run()
        assert curve.best_by_edp().setting == PvcSetting(
            5, VoltageDowngrade.MEDIUM
        )
