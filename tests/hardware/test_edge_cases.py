"""Hardware edge cases: mechanism interplay and custom configurations."""

import pytest

from repro.hardware.cpu import (
    Cpu,
    EffectiveVoltageTable,
    PvcSetting,
    VoltageDowngrade,
    e8500_like_spec,
)
from repro.hardware.dvfs import CappedGovernor, UtilizationGovernor
from repro.hardware.profiles import paper_sut
from repro.hardware.psu import Psu, PsuSpec
from repro.hardware.sensors import EpuSensor
from repro.hardware.system import CPU_BOUND, SystemUnderTest
from repro.hardware.trace import CpuWork, Idle, Trace


class TestMechanismInterplay:
    def test_capping_and_underclocking_compose(self):
        """The two knobs are orthogonal: a cap under an underclocked FSB
        yields multiplier x scaled-FSB."""
        spec = e8500_like_spec()
        cpu = Cpu(spec, PvcSetting(10))
        governor = CappedGovernor(max_multiplier=7)
        pstate = governor.select_pstate(cpu, 1.0)
        assert pstate.multiplier == 7
        assert cpu.frequency_hz(pstate) == pytest.approx(
            7 * 333e6 * 0.9
        )

    def test_voltage_downgrade_composes_with_capping(self):
        spec = e8500_like_spec()
        cpu = Cpu(spec, PvcSetting(0, VoltageDowngrade.MEDIUM))
        governor = CappedGovernor(max_multiplier=7)
        pstate = governor.select_pstate(cpu, 1.0)
        # downgraded VID of the x7 state
        assert cpu.voltage(pstate) == pytest.approx(1.100 - 0.125)

    def test_deeper_underclock_never_speeds_up(self):
        spec = e8500_like_spec()
        governor = UtilizationGovernor()
        freqs = []
        for pct in (0, 5, 10, 15, 20):
            cpu = Cpu(spec, PvcSetting(pct))
            pstate = governor.select_pstate(cpu, 1.0)
            freqs.append(cpu.frequency_hz(pstate))
        assert freqs == sorted(freqs, reverse=True)


class TestCustomConfigurations:
    def test_custom_psu_curve(self):
        psu = Psu(PsuSpec(
            rating_w=300.0,
            curve=[(0.0, 0.5), (0.5, 0.9), (1.0, 0.8)],
        ))
        assert psu.efficiency(150.0) == pytest.approx(0.9)
        assert psu.efficiency(300.0) == pytest.approx(0.8)
        assert psu.efficiency(75.0) == pytest.approx(0.7)
        # beyond rating clamps to the last point
        assert psu.efficiency(600.0) == pytest.approx(0.8)

    def test_voltage_table_entries_roundtrip(self):
        entries = {(5.0, VoltageDowngrade.SMALL): 1.17}
        table = EffectiveVoltageTable(entries)
        assert table.entries() == entries
        assert table.lookup(PvcSetting(5, VoltageDowngrade.SMALL)) == 1.17
        assert table.lookup(PvcSetting(10, VoltageDowngrade.SMALL)) is None

    def test_sut_without_disk_and_gpu_idles_cheaper(self):
        full = paper_sut()
        bare = paper_sut(has_gpu=False, has_disk=False)
        assert (
            bare.idle_wall_power_w(with_disk=False)
            < full.idle_wall_power_w()
        )

    def test_mem_activity_coupling(self):
        eager = SystemUnderTest(mem_activity_coupling=1.0)
        lazy = SystemUnderTest(mem_activity_coupling=0.0)
        trace = Trace([CpuWork(3e9, 1.0)])
        assert (
            eager.run_compiled(trace, CPU_BOUND).memory_joules
            > lazy.run_compiled(trace, CPU_BOUND).memory_joules
        )


class TestSensorPhases:
    def test_phase_changes_samples_not_truth(self, sut):
        trace = Trace([CpuWork(6e9, 1.0), Idle(1.3), CpuWork(3e9, 1.0)])
        run = sut.run_compiled(trace, CPU_BOUND,
            with_timeline=True)
        early = EpuSensor(phase_s=0.1).read(run)
        late = EpuSensor(phase_s=0.9).read(run)
        assert len(early.samples_w) >= len(late.samples_w)
        # Both are estimates of the same truth.
        for reading in (early, late):
            assert reading.joules == pytest.approx(
                run.cpu_joules, rel=0.5
            )

    def test_faster_sampling_reduces_error(self, sut):
        trace = Trace([
            CpuWork(2.0e9, 1.0), Idle(0.37),
            CpuWork(3.7e9, 1.0), Idle(0.51),
        ] * 6)
        run = sut.run_compiled(trace, CPU_BOUND,
            with_timeline=True)
        coarse = abs(EpuSensor(sample_period_s=1.0).sampling_error(run))
        fine = abs(EpuSensor(sample_period_s=0.05).sampling_error(run))
        assert fine <= coarse + 1e-9

    def test_empty_run(self, sut):
        run = sut.run_compiled(Trace([]), CPU_BOUND,
            with_timeline=True)
        reading = EpuSensor().read(run)
        assert reading.joules == 0.0
        assert EpuSensor().sampling_error(run) == 0.0


class TestSettingSweepMonotonicity:
    def test_energy_monotone_in_downgrade_at_fixed_underclock(self, sut):
        """At any underclock level, medium saves more than small saves
        more than none (full pipeline, pure CPU work)."""
        trace = Trace([CpuWork(3e10, 1.0)])
        for pct in (5, 10, 15):
            joules = []
            for downgrade in (VoltageDowngrade.NONE,
                              VoltageDowngrade.SMALL,
                              VoltageDowngrade.MEDIUM):
                sut.apply_setting(PvcSetting(pct, downgrade))
                joules.append(sut.run_compiled(trace, CPU_BOUND).cpu_joules)
            sut.apply_setting(PvcSetting())
            assert joules == sorted(joules, reverse=True)
