"""System-under-test playback: time/energy integration semantics."""

import pytest

from repro.calibration import targets
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.profiles import paper_sut
from repro.hardware.system import CPU_BOUND, IO_MIXED
from repro.hardware.trace import ClientWork, CpuWork, DiskAccess, Idle, Trace


class TestCpuPlayback:
    def test_full_duty_duration_is_cycles_over_frequency(self, sut):
        run = sut.run_compiled(Trace([CpuWork(3e9, 1.0)]), CPU_BOUND)
        top_hz = sut.cpu_spec.stock_frequency_hz  # 9 x 333 MHz
        assert run.duration_s == pytest.approx(3e9 / top_hz)

    def test_underclock_stretches_busy_work(self, sut):
        trace = Trace([CpuWork(3e9, 1.0)])
        base = sut.run_compiled(trace, CPU_BOUND)
        sut.apply_setting(PvcSetting(10))
        slowed = sut.run_compiled(trace, CPU_BOUND)
        assert slowed.duration_s == pytest.approx(
            base.duration_s / 0.9
        )

    def test_low_duty_work_stretches_sublinearly(self, sut):
        """Gaps are external latency: slowing the CPU stretches only the
        busy share, so low-duty work pays less than 1/(1-u)."""
        trace = Trace([ClientWork(3e9, 0.5)])
        base = sut.run_compiled(trace, CPU_BOUND)
        sut.apply_setting(PvcSetting(10))
        slowed = sut.run_compiled(trace, CPU_BOUND)
        ratio = slowed.duration_s / base.duration_s
        assert 1.0 < ratio < 1.0 / 0.9

    def test_low_duty_runs_at_lower_power(self, sut):
        busy = sut.run_compiled(Trace([CpuWork(3e9, 1.0)]), CPU_BOUND)
        idleish = sut.run_compiled(Trace([ClientWork(3e9, 0.3)]), CPU_BOUND)
        assert idleish.avg_cpu_power_w < busy.avg_cpu_power_w / 2

    def test_energy_additivity(self, sut):
        """Playing two segments equals the sum of playing each."""
        seg_a = CpuWork(1e9, 1.0)
        seg_b = ClientWork(2e9, 0.5)
        both = sut.run_compiled(Trace([seg_a, seg_b]), CPU_BOUND)
        a = sut.run_compiled(Trace([seg_a]), CPU_BOUND)
        b = sut.run_compiled(Trace([seg_b]), CPU_BOUND)
        assert both.cpu_joules == pytest.approx(a.cpu_joules + b.cpu_joules)
        assert both.duration_s == pytest.approx(
            a.duration_s + b.duration_s
        )
        assert both.wall_joules == pytest.approx(
            a.wall_joules + b.wall_joules
        )


class TestDiskPlayback:
    def test_disk_time_is_frequency_invariant(self, sut):
        trace = Trace([DiskAccess(10, 1e6, sequential=True)])
        base = sut.run_compiled(trace, IO_MIXED)
        sut.apply_setting(PvcSetting(15, VoltageDowngrade.MEDIUM))
        slowed = sut.run_compiled(trace, IO_MIXED)
        assert slowed.duration_s == pytest.approx(base.duration_s)

    def test_disk_rail_energy_recorded(self, sut):
        run = sut.run_compiled(Trace([DiskAccess(1, 72e6, sequential=True)]),
                      IO_MIXED)
        assert run.disk_energy.joules_5v > 0
        assert run.disk_energy.joules_12v > run.disk_energy.joules_5v

    def test_cpu_near_idle_during_disk(self, sut):
        run = sut.run_compiled(Trace([DiskAccess(1, 72e6, sequential=True)]),
                      IO_MIXED)
        assert run.avg_cpu_power_w < 7.0

    def test_diskless_system_rejects_disk_traces(self):
        sut = paper_sut(has_disk=False)
        with pytest.raises(ValueError):
            sut.run_compiled(Trace([DiskAccess(1, 100, sequential=True)]))


class TestIdleAndFixedDraws:
    def test_idle_second(self, sut):
        run = sut.run_compiled(Trace([Idle(1.0)]), CPU_BOUND)
        assert run.duration_s == pytest.approx(1.0)
        assert 3.5 < run.cpu_joules < 5.0  # idle CPU watts
        assert run.gpu_joules == pytest.approx(sut.gpu.idle_w)

    def test_gpu_excluded_when_absent(self):
        sut = paper_sut(has_gpu=False)
        run = sut.run_compiled(Trace([Idle(1.0)]), CPU_BOUND)
        assert run.gpu_joules == 0.0

    def test_wall_includes_psu_loss(self, sut):
        run = sut.run_compiled(Trace([Idle(1.0)]), CPU_BOUND)
        assert run.wall_joules > run.dc_joules


class TestTable1Buildup:
    def test_all_rows_within_tolerance(self, sut):
        rows = targets.TABLE1_ROWS
        assert sut.soft_off_wall_power_w() == pytest.approx(
            rows[0].watts, abs=targets.TABLE1_WATTS_TOLERANCE
        )
        for row in rows[1:]:
            measured = sut.idle_wall_power_w(
                with_cpu=row.with_cpu, dimm_count=row.dimm_count,
                with_gpu=row.with_gpu, with_disk=False,
            )
            assert measured == pytest.approx(
                row.watts, abs=targets.TABLE1_WATTS_TOLERANCE
            ), row.description

    def test_cpu_install_more_than_doubles_draw(self, sut):
        """Paper: 'the power draw more than doubles' with the CPU."""
        without = sut.idle_wall_power_w(
            with_cpu=False, dimm_count=0, with_gpu=False, with_disk=False
        )
        with_cpu = sut.idle_wall_power_w(
            with_cpu=True, dimm_count=0, with_gpu=False, with_disk=False
        )
        assert with_cpu > 2 * without

    def test_cpu_fraction_of_system_power(self, sut):
        """Paper Sec. 3.2: busy CPU ~25% of total system wall power."""
        run = sut.run_compiled(
            Trace([CpuWork(3e9, 1.0)]), IO_MIXED
        )
        fraction = run.cpu_joules / run.wall_joules
        assert fraction == pytest.approx(
            targets.CPU_FRACTION_OF_SYSTEM_POWER, abs=0.10
        )


class TestMeasurementArithmetic:
    def test_run_measurement_add(self, sut):
        a = sut.run_compiled(Trace([CpuWork(1e9, 1.0)]), CPU_BOUND,
            with_timeline=True)
        b = sut.run_compiled(Trace([Idle(0.5)]), CPU_BOUND,
            with_timeline=True)
        total = a + b
        assert total.duration_s == pytest.approx(
            a.duration_s + b.duration_s
        )
        assert total.cpu_joules == pytest.approx(
            a.cpu_joules + b.cpu_joules
        )
        assert len(total.timeline) == len(a.timeline) + len(b.timeline)

    def test_component_joules_keys(self, sut):
        run = sut.run_compiled(Trace([Idle(0.1)]), CPU_BOUND)
        assert set(run.component_joules()) == {
            "cpu", "memory", "disk", "board", "gpu", "fan",
        }
