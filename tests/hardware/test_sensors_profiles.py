"""Sensors (EPU sampling, meters) and the calibrated profile."""

import pytest

from repro.calibration import targets
from repro.hardware.cpu import PvcSetting, VoltageDowngrade, e8500_like_spec
from repro.hardware.profiles import (
    build_voltage_table,
    paper_sut,
    pvc_settings_grid,
)
from repro.hardware.sensors import CurrentProbe, EpuSensor, WallMeter
from repro.hardware.system import CPU_BOUND, IO_MIXED
from repro.hardware.trace import CpuWork, DiskAccess, Idle, Trace


class TestEpuSensor:
    def test_exact_on_constant_power(self, sut):
        """Constant power: sampled estimate equals the true integral."""
        run = sut.run_compiled(Trace([CpuWork(30e9, 1.0)]), CPU_BOUND,
            with_timeline=True)  # 10 s
        sensor = EpuSensor()
        estimate = sensor.read(run).joules
        assert estimate == pytest.approx(run.cpu_joules, rel=1e-9)

    def test_biased_on_bursty_short_runs(self, sut):
        """1 Hz sampling misrepresents sub-second power changes -- the
        drawback the paper acknowledges for its GUI-sampling method."""
        trace = Trace([CpuWork(0.9e9, 1.0), Idle(0.7), CpuWork(2.2e9, 1.0)])
        run = sut.run_compiled(trace, CPU_BOUND,
            with_timeline=True)
        error = EpuSensor().sampling_error(run)
        assert error != 0.0
        assert abs(error) < 0.5

    def test_sample_count(self, sut):
        run = sut.run_compiled(Trace([CpuWork(9e9, 1.0)]), CPU_BOUND,
            with_timeline=True)  # 3 s
        samples = EpuSensor().read(run).samples_w
        assert len(samples) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            EpuSensor(sample_period_s=0)


class TestOtherInstruments:
    def test_wall_meter(self, sut):
        run = sut.run_compiled(Trace([Idle(2.0)]), CPU_BOUND)
        assert WallMeter().read_joules(run) == run.wall_joules

    def test_current_probe_rails(self, sut):
        run = sut.run_compiled(
            Trace([DiskAccess(1, 72e6, sequential=True)]), IO_MIXED
        )
        rails = CurrentProbe().read(run)
        assert rails.total_joules == pytest.approx(run.disk_joules)


class TestCalibratedProfile:
    def test_grid_has_seven_points(self):
        assert len(pvc_settings_grid()) == 7

    def test_voltage_tables_present_for_both_classes(self):
        sut = paper_sut()
        assert CPU_BOUND in sut.voltage_tables
        assert IO_MIXED in sut.voltage_tables

    def test_cpu_bound_inversion_round_trip(self):
        """Simulating pure CPU work at a calibrated setting reproduces
        the paper's energy ratio (the inversion is exact)."""
        sut = paper_sut()
        trace = Trace([CpuWork(3e10, 1.0)])
        base = sut.run_compiled(trace, CPU_BOUND)
        for downgrade in (VoltageDowngrade.SMALL, VoltageDowngrade.MEDIUM):
            for pct in (5, 10, 15):
                sut.apply_setting(PvcSetting(pct, downgrade))
                run = sut.run_compiled(trace, CPU_BOUND)
                expected = targets.energy_ratio_target(
                    "mysql", downgrade.value, pct
                )
                assert run.cpu_joules / base.cpu_joules == pytest.approx(
                    expected, abs=0.002
                )
        sut.apply_setting(PvcSetting())

    def test_effective_voltages_drift_up_with_underclock(self):
        """The paper's Fig. 4 behaviour: measured (effective) voltage
        rises slightly with deeper underclocking, so EDP worsens."""
        table = build_voltage_table(CPU_BOUND, e8500_like_spec())
        for downgrade in (VoltageDowngrade.SMALL, VoltageDowngrade.MEDIUM):
            volts = [
                table.lookup(PvcSetting(pct, downgrade))
                for pct in (5, 10, 15)
            ]
            assert volts == sorted(volts)

    def test_medium_below_small(self):
        table = build_voltage_table(CPU_BOUND, e8500_like_spec())
        for pct in (5, 10, 15):
            small = table.lookup(PvcSetting(pct, VoltageDowngrade.SMALL))
            medium = table.lookup(PvcSetting(pct, VoltageDowngrade.MEDIUM))
            assert medium < small
