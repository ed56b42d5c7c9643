"""Measurement protocol, instrument panel, and comparison tables."""

import pytest

from repro.hardware.system import CPU_BOUND
from repro.hardware.trace import CpuWork, Idle, Trace
from repro.measurement.meter import InstrumentPanel
from repro.measurement.protocol import (
    MeasurementProtocol,
    combine_measurements,
    exact_protocol,
)
from repro.measurement.report import ComparisonTable


class TestProtocol:
    def test_noise_free_returns_exact(self, sut):
        run = sut.run_compiled(Trace([CpuWork(3e9, 1.0)]), CPU_BOUND)
        sample = exact_protocol().measure(lambda: run)
        assert sample.cpu_joules == pytest.approx(run.cpu_joules)
        assert sample.duration_s == pytest.approx(run.duration_s)

    def test_trimmed_mean_near_truth(self, sut):
        run = sut.run_compiled(Trace([CpuWork(3e10, 1.0)]), CPU_BOUND)
        protocol = MeasurementProtocol(runs=5, noise_sigma=0.02, seed=1)
        sample = protocol.measure(lambda: run)
        assert sample.cpu_joules == pytest.approx(run.cpu_joules, rel=0.05)
        assert sample.runs == 5

    def test_deterministic_given_seed(self, sut):
        run = sut.run_compiled(Trace([CpuWork(3e9, 1.0)]), CPU_BOUND)
        a = MeasurementProtocol(seed=9).measure(lambda: run)
        b = MeasurementProtocol(seed=9).measure(lambda: run)
        assert a.cpu_joules == b.cpu_joules

    def test_trim_drops_extremes(self):
        protocol = MeasurementProtocol(runs=5, noise_sigma=0.0)
        assert protocol._trimmed_mean([1.0, 100.0, 3.0, 2.0, -50.0]) == \
            pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementProtocol(runs=0)
        with pytest.raises(ValueError):
            MeasurementProtocol(runs=3, drop_extremes=2)
        with pytest.raises(ValueError):
            MeasurementProtocol(noise_sigma=-0.1)

    def test_combine_measurements(self, sut):
        a = sut.run_compiled(Trace([CpuWork(1e9, 1.0)]), CPU_BOUND)
        b = sut.run_compiled(Trace([Idle(1.0)]), CPU_BOUND)
        total = combine_measurements([a, b])
        assert total.duration_s == pytest.approx(
            a.duration_s + b.duration_s
        )
        empty = combine_measurements([])
        assert empty.duration_s == 0.0


class TestInstrumentPanel:
    def test_reading_fields(self, sut):
        run = sut.run_compiled(Trace([CpuWork(9e9, 1.0)]), CPU_BOUND,
            with_timeline=True)
        reading = InstrumentPanel().read(run)
        assert reading.exact_cpu_joules == pytest.approx(run.cpu_joules)
        assert reading.wall_joules == pytest.approx(run.wall_joules)
        assert reading.disk_joules == pytest.approx(run.disk_joules)
        assert abs(reading.epu_error) < 0.05


class TestComparisonTable:
    def test_errors(self):
        table = ComparisonTable("demo")
        table.add("a", 10.0, 11.0)
        table.add("b", None, 5.0)
        assert table.rows[0].error == pytest.approx(0.1)
        assert table.rows[1].error is None
        assert table.max_abs_error() == pytest.approx(0.1)

    def test_render_contains_values(self):
        table = ComparisonTable("demo")
        table.add("metric one", 2.0, 1.9, unit="J")
        text = table.render()
        assert "demo" in text
        assert "metric one" in text
        assert "-5.0%" in text
