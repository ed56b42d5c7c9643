"""The playback kernel against the per-segment oracle.

``SystemUnderTest.run_compiled`` and ``run_compiled_batch`` are the one
playback kernel every measurement goes through;
``segment_playback.play_segments`` transcribes the same machine model
one segment at a time with scalar arithmetic.  The two must agree on
every field to float-summation order, timeline included.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from segment_playback import play_segments
from repro.db.profiles import commercial_profile
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.profiles import paper_sut, pvc_settings_grid
from repro.hardware.sensors import EpuSensor
from repro.hardware.system import CPU_BOUND, IO_MIXED, SystemUnderTest
from repro.hardware.trace import (
    ClientWork,
    CompiledTrace,
    CpuWork,
    DiskAccess,
    Idle,
    Trace,
)
from repro.workloads.runner import WorkloadRunner
from repro.workloads.tpch.generator import tpch_database
from repro.workloads.tpch.queries import Q5_TABLES, q5_paper_workload

REL = 1e-9
FIELDS = (
    "duration_s", "cpu_joules", "memory_joules", "board_joules",
    "gpu_joules", "fan_joules", "wall_joules",
)
INTERVAL_FIELDS = (
    "duration_s", "cpu_w", "memory_w", "disk_5v_w", "disk_12v_w",
    "board_w", "gpu_w", "fan_w",
)


def mixed_trace() -> Trace:
    """Every segment kind, several utilization levels, some zero work."""
    return Trace([
        CpuWork(3.1e9, 1.0, "server"),
        CpuWork(0.0, 1.0, "empty-cpu"),
        ClientWork(4.2e8, 0.35, "client"),
        DiskAccess(120, 7.5e7, sequential=False, label="random-read"),
        DiskAccess(4, 2.0e8, sequential=True, write=True, label="temp"),
        DiskAccess(0, 0.0, sequential=True, label="empty-disk"),
        CpuWork(9.0e8, 0.6, "mid-duty"),
        Idle(0.25, "stall"),
        Idle(0.0, "empty-idle"),
        ClientWork(1.0e8, 0.35, "client2"),
    ])


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def assert_measurements_match(oracle, got):
    for name in FIELDS:
        assert rel_diff(getattr(oracle, name), getattr(got, name)) <= REL, (
            name, getattr(oracle, name), getattr(got, name)
        )
    for rail in ("joules_5v", "joules_12v"):
        want = getattr(oracle.disk_energy, rail)
        have = getattr(got.disk_energy, rail)
        assert rel_diff(want, have) <= REL, (rail, want, have)


def assert_timelines_match(oracle, got):
    assert len(got.timeline) == len(oracle.timeline)
    for a, b in zip(oracle.timeline, got.timeline):
        assert b.label == a.label
        for name in INTERVAL_FIELDS:
            assert rel_diff(getattr(a, name), getattr(b, name)) <= REL, (
                a.label, name, getattr(a, name), getattr(b, name)
            )


class TestCompiledTrace:
    def test_compile_roundtrip_counts(self):
        trace = mixed_trace()
        compiled = trace.compiled()
        assert len(compiled) == len(trace)
        assert compiled.labels[0] == "server"

    def test_compiled_memoized_and_invalidated(self):
        trace = mixed_trace()
        first = trace.compiled()
        assert trace.compiled() is first
        trace.add(Idle(1.0, "more"))
        second = trace.compiled()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_from_trace_classifies_kinds(self):
        compiled = CompiledTrace.from_trace(mixed_trace())
        assert sorted(set(compiled.kinds.tolist())) == [0, 1, 2, 3]


class TestVectorizedPlayback:
    @pytest.mark.parametrize("setting", pvc_settings_grid())
    def test_matches_loop_path_across_settings(self, setting):
        sut = paper_sut()
        sut.apply_setting(setting)
        trace = mixed_trace()
        assert_measurements_match(
            play_segments(sut, trace, IO_MIXED),
            sut.run_compiled(trace.compiled(), IO_MIXED),
        )

    def test_matches_loop_path_cpu_bound(self):
        sut = paper_sut()
        sut.apply_setting(PvcSetting(5, VoltageDowngrade.MEDIUM))
        trace = mixed_trace()
        assert_measurements_match(
            play_segments(sut, trace, CPU_BOUND),
            sut.run_compiled(trace, CPU_BOUND),
        )

    def test_timeline_reconstruction_matches(self):
        sut = paper_sut()
        trace = mixed_trace()
        assert_timelines_match(
            play_segments(sut, trace, IO_MIXED),
            sut.run_compiled(trace, IO_MIXED, with_timeline=True),
        )

    def test_timeline_omitted_by_default(self):
        sut = paper_sut()
        fast = sut.run_compiled(mixed_trace(), IO_MIXED)
        assert fast.timeline == []

    def test_diskless_sut_rejects_disk_trace(self):
        sut = SystemUnderTest(has_disk=False)
        trace = Trace([DiskAccess(1, 4096, sequential=True)])
        with pytest.raises(ValueError):
            sut.run_compiled(trace.compiled())

    def test_empty_trace(self):
        sut = paper_sut()
        fast = sut.run_compiled(Trace().compiled())
        assert fast.duration_s == 0.0
        assert fast.cpu_joules == 0.0


# -- drawn traces -------------------------------------------------------

SETTINGS = pvc_settings_grid(include_stock=True)
_SUTS: dict = {}


def sut_for(setting: PvcSetting, has_disk: bool = True) -> SystemUnderTest:
    """One calibrated machine per (setting, disk) pair, built once."""
    key = (setting, has_disk)
    if key not in _SUTS:
        sut = paper_sut(has_disk=has_disk)
        sut.apply_setting(setting)
        _SUTS[key] = sut
    return _SUTS[key]


labels = st.sampled_from(["", "q0", "q1:client"])
#: Utilizations in (0, 1]: a few shared levels (segments of one level
#: share a p-state in the kernel) plus arbitrary ones.
utilizations = st.one_of(
    st.sampled_from([0.1, 0.35, 0.6, 1.0]),
    st.floats(min_value=1e-3, max_value=1.0),
)
cycles = st.one_of(st.just(0.0), st.floats(min_value=1e3, max_value=1e11))
cpu_segments = st.builds(CpuWork, cycles, utilizations, labels)
client_segments = st.builds(ClientWork, cycles, utilizations, labels)
disk_segments = st.builds(
    DiskAccess,
    num_ops=st.integers(min_value=0, max_value=10_000),
    bytes_total=st.one_of(
        st.just(0.0), st.floats(min_value=1.0, max_value=1e10)
    ),
    sequential=st.booleans(),
    write=st.booleans(),
    cpu_overlap_utilization=st.floats(min_value=0.0, max_value=1.0),
    label=labels,
)
idle_segments = st.builds(
    Idle,
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=100.0)),
    labels,
)
segments = st.one_of(cpu_segments, client_segments, disk_segments,
                     idle_segments)
traces = st.lists(segments, max_size=12).map(Trace)
workload_classes = st.sampled_from([CPU_BOUND, IO_MIXED])
drawn = settings(max_examples=150, derandomize=True, database=None)


class TestDrawnTraces:
    @drawn
    @given(st.lists(traces, min_size=1, max_size=4),
           st.sampled_from(SETTINGS), workload_classes)
    def test_kernel_matches_oracle(self, drawn_traces, setting,
                                   workload_class):
        sut = sut_for(setting)
        compiled = [trace.compiled() for trace in drawn_traces]
        batch = sut.run_compiled_batch(compiled, workload_class)
        assert len(batch) == len(drawn_traces)
        for trace, single, sliced in zip(drawn_traces, compiled, batch):
            oracle = play_segments(sut, trace, workload_class)
            played = sut.run_compiled(single, workload_class,
                                      with_timeline=True)
            assert_measurements_match(oracle, played)
            assert_measurements_match(oracle, sliced)
            assert_timelines_match(oracle, played)
            assert all(math.isfinite(getattr(played, name))
                       for name in FIELDS)

    @drawn
    @given(traces, disk_segments, st.sampled_from(SETTINGS),
           workload_classes)
    def test_diskless_sut_rejects_disk_segments(self, trace, disk,
                                                setting, workload_class):
        sut = sut_for(setting, has_disk=False)
        trace.add(disk)
        with pytest.raises(ValueError):
            play_segments(sut, trace, workload_class)
        with pytest.raises(ValueError):
            sut.run_compiled(trace.compiled(), workload_class)
        with pytest.raises(ValueError):
            sut.run_compiled_batch([trace.compiled()], workload_class)


# -- run_queries: fresh executions through the kernel ---------------------

#: ``WorkloadRunner.run_queries`` on the paper's Q5 workload at SF 0.01,
#: as recorded with the per-segment interpreter playing it: timeline
#: length, and the count and sum of 100 Hz EPU samples.
RUN_QUERIES_PINS = {
    "mysql": (20, 61, 2162.2967434784996),
    "commercial-cold": (46, 172, 2260.0221439881),
    "commercial-warm": (40, 50, 1231.995074847),
}
DENSE_EPU = EpuSensor(sample_period_s=0.01, phase_s=0.005)


def _oracle_for(runner: WorkloadRunner, queries: list[str]):
    """The per-segment oracle over the traces ``run_queries`` plays."""
    total = None
    for i, sql in enumerate(queries):
        trace = runner.execute_query(sql, label=f"q{i}").trace
        m = play_segments(runner.sut, trace, runner.db.workload_class)
        total = m if total is None else total + m
    return total


def _check_run(name, runner, queries, oracle=None):
    total = runner.run_queries(queries).total
    length, count, sample_sum = RUN_QUERIES_PINS[name]
    assert len(total.timeline) == length
    samples = DENSE_EPU.read(total).samples_w
    assert len(samples) == count
    assert rel_diff(math.fsum(samples), sample_sum) <= 1e-12
    if oracle is not None:
        assert_measurements_match(oracle, total)
        assert_timelines_match(oracle, total)
        assert DENSE_EPU.read(oracle).samples_w == pytest.approx(
            samples, rel=REL
        )
    return total


class TestRunQueries:
    def test_memory_engine(self, mysql_db):
        runner = WorkloadRunner(mysql_db, paper_sut())
        queries = q5_paper_workload()
        _check_run("mysql", runner, queries, _oracle_for(runner, queries))

    def test_disk_engine_cold_then_warm(self):
        db = tpch_database(0.01, commercial_profile(0.01), seed=0,
                           tables=Q5_TABLES)
        runner = WorkloadRunner(db, paper_sut())
        queries = q5_paper_workload()
        cold = _check_run("commercial-cold", runner, queries)
        # The cold run left the pool warm: re-executing now replays the
        # warm traces, so the oracle can be built from them.
        warm = _check_run("commercial-warm", runner, queries,
                          _oracle_for(runner, queries))
        assert cold.disk_joules > warm.disk_joules
        assert EpuSensor().read(cold).samples_w
