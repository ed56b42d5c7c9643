"""Stacked batch playback and compiled-trace persistence."""

import numpy as np
import pytest

from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.trace import (
    CompiledTrace,
    CpuWork,
    ClientWork,
    DiskAccess,
    Idle,
    Trace,
)
from repro.hardware.trace_store import ColumnarTraceStore

REL = 1e-9


def _traces():
    t1 = Trace([
        CpuWork(2.0e9, 1.0, "a"),
        DiskAccess(40, 12e6, sequential=True, label="a:io"),
        ClientWork(1.5e8, 0.35, "a:client"),
    ])
    t2 = Trace([
        CpuWork(5.0e8, 0.62, "b"),
        Idle(0.25, "b:idle"),
    ])
    t3 = Trace([])  # a node that never served anything
    t4 = Trace([
        DiskAccess(500, 4e6, sequential=False, label="c:io"),
        CpuWork(1.0e9, 0.9, "c"),
        Idle(1.5, "c:idle"),
    ])
    return [t.compiled() for t in (t1, t2, t3, t4)]


class TestRunCompiledBatch:
    @pytest.mark.parametrize("setting", [
        PvcSetting(),
        PvcSetting(10, VoltageDowngrade.MEDIUM),
    ])
    def test_matches_per_trace_run_compiled(self, sut, setting):
        sut.apply_setting(setting)
        traces = _traces()
        batch = sut.run_compiled_batch(traces)
        assert len(batch) == len(traces)
        for compiled, measurement in zip(traces, batch):
            single = sut.run_compiled(compiled)
            assert measurement.duration_s == pytest.approx(
                single.duration_s, rel=REL, abs=1e-15
            )
            assert measurement.wall_joules == pytest.approx(
                single.wall_joules, rel=REL, abs=1e-15
            )
            assert measurement.cpu_joules == pytest.approx(
                single.cpu_joules, rel=REL, abs=1e-15
            )
            assert measurement.disk_joules == pytest.approx(
                single.disk_joules, rel=REL, abs=1e-15
            )

    def test_small_trace_after_a_large_one_keeps_its_digits(self, sut):
        """Each trace's slice is summed on its own; a running sum
        differenced at the boundaries would leave ~1e-6 relative error
        on the microsecond trace behind the hours-long one."""
        large = Trace([CpuWork(1e11, 0.001), Idle(100.0)]).compiled()
        small = Trace([Idle(1e-6)]).compiled()
        _, sliced = sut.run_compiled_batch([large, small])
        single = sut.run_compiled(small)
        for name in ("duration_s", "cpu_joules", "wall_joules"):
            assert getattr(sliced, name) == pytest.approx(
                getattr(single, name), rel=1e-12
            ), name

    def test_empty_batch_and_empty_traces(self, sut):
        assert sut.run_compiled_batch([]) == []
        only_empty = sut.run_compiled_batch(
            [Trace([]).compiled(), Trace([]).compiled()]
        )
        assert [m.duration_s for m in only_empty] == [0.0, 0.0]
        assert [m.wall_joules for m in only_empty] == [0.0, 0.0]

    def test_concat_plays_like_the_sum(self, sut):
        traces = _traces()
        stacked = CompiledTrace.concat(traces)
        assert len(stacked) == sum(len(t) for t in traces)
        whole = sut.run_compiled(stacked)
        parts = sut.run_compiled_batch(traces)
        assert whole.duration_s == pytest.approx(
            sum(m.duration_s for m in parts), rel=REL
        )
        assert whole.wall_joules == pytest.approx(
            sum(m.wall_joules for m in parts), rel=REL
        )


class TestCompiledTracePersistence:
    """The trace store is the one persisted form of a compiled trace."""

    def test_save_load_roundtrip(self, tmp_path):
        traces = _traces()
        store = ColumnarTraceStore(tmp_path)
        for k, compiled in enumerate(traces):
            store.put(f"t{k}", compiled)
        reader = ColumnarTraceStore(tmp_path)
        for k, compiled in enumerate(traces):
            loaded = reader.get(f"t{k}")
            assert loaded.labels == compiled.labels
            for name in ("kinds", "cycles", "utilization", "num_ops",
                         "bytes_total", "sequential", "write", "seconds"):
                np.testing.assert_array_equal(
                    getattr(loaded, name), getattr(compiled, name)
                )

    def test_loaded_trace_plays_identically(self, sut, tmp_path):
        compiled = _traces()[0]
        ColumnarTraceStore(tmp_path).put("t", compiled)
        loaded = ColumnarTraceStore(tmp_path).get("t")
        a = sut.run_compiled(compiled)
        b = sut.run_compiled(loaded)
        assert b.duration_s == a.duration_s
        assert b.wall_joules == a.wall_joules
