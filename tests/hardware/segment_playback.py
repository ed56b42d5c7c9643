"""Per-segment trace playback (test oracle).

``play_segments`` is the interpreter ``SystemUnderTest`` shipped beside
its array kernel: it walks a :class:`~repro.hardware.trace.Trace` one
segment at a time, builds one :class:`PowerInterval` per segment with
plain scalar arithmetic, and integrates the intervals with Python sums.
``SystemUnderTest.run_compiled`` and ``run_compiled_batch`` must agree
with it on every field to float-summation order, and their
``with_timeline=True`` intervals must equal its intervals.

Segment semantics (the model both paths implement):

``CpuWork``/``ClientWork``
    The governor picks a p-state from the segment's utilization.  Busy
    time is ``cycles / f(pstate)``; the idle gaps inside the segment
    come from external latency, sized at the stock top frequency.
``DiskAccess``
    Wall time from the disk model, frequency-invariant; the CPU runs
    the segment's overlap work at the governor's p-state for it.
``Idle``
    Everything idles.

A segment with no wall time yields an all-zero interval, except
``Idle``, which always carries the full idle draws.
"""

from __future__ import annotations

from repro.hardware.cpu import Cpu
from repro.hardware.disk import DiskEnergy
from repro.hardware.memory import Memory
from repro.hardware.system import (
    PowerInterval,
    RunMeasurement,
    SystemUnderTest,
)
from repro.hardware.trace import ClientWork, CpuWork, DiskAccess, Idle, Trace


def play_segments(sut: SystemUnderTest, trace: Trace,
                  workload_class: str) -> RunMeasurement:
    """Play ``trace`` under ``sut``'s current PVC setting, one segment
    at a time, timeline included."""
    cpu = sut.cpu_for(workload_class)
    memory = sut.memory_for()
    intervals: list[PowerInterval] = []
    for seg in trace:
        if isinstance(seg, (CpuWork, ClientWork)):
            intervals.append(_play_cpu(sut, cpu, memory, seg))
        elif isinstance(seg, DiskAccess):
            intervals.append(_play_disk(sut, cpu, memory, seg))
        elif isinstance(seg, Idle):
            intervals.append(_interval(
                sut, seg.label, seg.seconds, cpu.idle_power_w(),
                memory.idle_power_w(), disk_active_frac=0.0,
            ))
        else:
            raise TypeError(f"unknown segment type: {type(seg)!r}")
    return _integrate(sut, intervals)


def _play_cpu(sut: SystemUnderTest, cpu: Cpu, memory: Memory,
              seg: CpuWork | ClientWork) -> PowerInterval:
    pstate = sut.governor.select_pstate(cpu, seg.utilization)
    busy_s = seg.cycles / cpu.frequency_hz(pstate)
    stock_top = sut.cpu_spec.stock_frequency_hz
    gap_s = ((seg.cycles / stock_top) * (1.0 - seg.utilization)
             / seg.utilization)
    wall_s = busy_s + gap_s
    if wall_s <= 0.0:
        return PowerInterval(0, 0, 0, 0, 0, 0, 0, 0, seg.label)
    busy_frac = busy_s / wall_s
    cpu_w = (
        busy_frac * cpu.busy_power_w(pstate)
        + (1.0 - busy_frac) * cpu.idle_power_w()
    )
    mem_w = memory.power_w(min(1.0, busy_frac * sut.mem_activity_coupling))
    return _interval(sut, seg.label, wall_s, cpu_w, mem_w,
                     disk_active_frac=0.0)


def _access_time_s(sut: SystemUnderTest, seg: DiskAccess) -> float:
    if seg.sequential:
        time_s = sut.disk.sequential_time_s(seg.bytes_total)
    else:
        time_s = sut.disk.random_time_s(seg.num_ops, seg.bytes_total)
    if seg.write:
        time_s *= sut.disk.spec.write_penalty
    return time_s


def _play_disk(sut: SystemUnderTest, cpu: Cpu, memory: Memory,
               seg: DiskAccess) -> PowerInterval:
    if not sut.has_disk:
        raise ValueError("trace touches the disk but the SUT has none")
    wall_s = _access_time_s(sut, seg)
    if wall_s <= 0.0:
        return PowerInterval(0, 0, 0, 0, 0, 0, 0, 0, seg.label)
    util = seg.cpu_overlap_utilization
    pstate = sut.governor.select_pstate(cpu, util)
    cpu_w = util * cpu.busy_power_w(pstate) + (1.0 - util) * cpu.idle_power_w()
    mem_w = memory.power_w(min(1.0, 0.2))
    return _interval(sut, seg.label, wall_s, cpu_w, mem_w,
                     disk_active_frac=1.0)


def _interval(sut: SystemUnderTest, label: str, wall_s: float,
              cpu_w: float, mem_w: float,
              disk_active_frac: float) -> PowerInterval:
    spec = sut.disk.spec
    if sut.has_disk:
        disk_5v = (disk_active_frac * spec.active_5v_w
                   + (1 - disk_active_frac) * spec.idle_5v_w)
        disk_12v = (disk_active_frac * spec.active_12v_w
                    + (1 - disk_active_frac) * spec.idle_12v_w)
    else:
        disk_5v = disk_12v = 0.0
    return PowerInterval(
        duration_s=wall_s,
        cpu_w=cpu_w,
        memory_w=mem_w,
        disk_5v_w=disk_5v,
        disk_12v_w=disk_12v,
        board_w=sut.motherboard.on_w + sut.motherboard.cpu_support_w,
        gpu_w=sut.gpu.idle_w if sut.has_gpu else 0.0,
        fan_w=sut.fan.w,
        label=label,
    )


def _integrate(sut: SystemUnderTest,
               intervals: list[PowerInterval]) -> RunMeasurement:
    def joules(watts) -> float:
        return sum(watts(iv) * iv.duration_s for iv in intervals)

    def dc_w(iv: PowerInterval) -> float:
        return (iv.cpu_w + iv.memory_w + (iv.disk_5v_w + iv.disk_12v_w)
                + iv.board_w + iv.gpu_w + iv.fan_w)

    return RunMeasurement(
        duration_s=sum(iv.duration_s for iv in intervals),
        cpu_joules=joules(lambda iv: iv.cpu_w),
        memory_joules=joules(lambda iv: iv.memory_w),
        disk_energy=DiskEnergy(joules(lambda iv: iv.disk_5v_w),
                               joules(lambda iv: iv.disk_12v_w)),
        board_joules=joules(lambda iv: iv.board_w),
        gpu_joules=joules(lambda iv: iv.gpu_w),
        fan_joules=joules(lambda iv: iv.fan_w),
        wall_joules=joules(lambda iv: sut.psu.wall_power_w(dc_w(iv))),
        timeline=intervals,
    )
