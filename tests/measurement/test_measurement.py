"""Instrument panel and comparison tables."""

import pytest

from repro.hardware.system import CPU_BOUND
from repro.hardware.trace import CpuWork, Trace
from repro.measurement.meter import InstrumentPanel
from repro.measurement.report import ComparisonTable


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
