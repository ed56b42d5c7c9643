"""Work-segment model: validation and totals."""

import pytest

from repro.hardware.trace import ClientWork, CpuWork, DiskAccess, Idle, Trace


class TestSegmentValidation:
    def test_cpu_work(self):
        with pytest.raises(ValueError):
            CpuWork(-1.0)
        with pytest.raises(ValueError):
            CpuWork(1.0, utilization=0.0)
        with pytest.raises(ValueError):
            CpuWork(1.0, utilization=1.5)

    def test_disk_access(self):
        with pytest.raises(ValueError):
            DiskAccess(-1, 0, sequential=True)
        with pytest.raises(ValueError):
            DiskAccess(1, -5, sequential=True)
        with pytest.raises(ValueError):
            DiskAccess(1, 5, sequential=True, cpu_overlap_utilization=2.0)

    def test_idle(self):
        with pytest.raises(ValueError):
            Idle(-0.1)


class TestTotals:
    def test_totals(self):
        trace = Trace([
            CpuWork(1e9, 1.0),
            ClientWork(2e9, 0.5),
            DiskAccess(3, 300.0, sequential=False),
            DiskAccess(1, 100.0, sequential=True),
            Idle(1.0),
        ])
        assert trace.total_cpu_cycles == 1e9
        assert trace.total_client_cycles == 2e9
        assert trace.total_disk_bytes == 400.0
        assert trace.total_disk_ops == 4
        assert len(trace) == 5

    def test_extend(self):
        a = Trace([CpuWork(1.0)])
        b = Trace([CpuWork(2.0)])
        a.extend(b)
        assert a.total_cpu_cycles == 3.0
