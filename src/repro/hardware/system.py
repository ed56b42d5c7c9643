"""System under test: plays work traces, producing time and energy.

:class:`SystemUnderTest` composes the component models (CPU, memory,
disk, PSU, board, GPU) and converts a :class:`~repro.hardware.trace.Trace`
into a :class:`RunMeasurement` under a given PVC setting.  One array
kernel, :meth:`SystemUnderTest._playback_arrays`, computes every
segment's wall time and per-component power;
:meth:`~SystemUnderTest.run_compiled` plays one trace through it and
:meth:`~SystemUnderTest.run_compiled_batch` many stacked traces at
once.  With ``with_timeline=True`` the result carries the
piecewise-constant power *timeline* that the sensor models in
:mod:`repro.hardware.sensors` sample, mirroring how the paper reads the
EPU sensor and the wall meter.

Segment semantics
-----------------
``CpuWork``/``ClientWork``
    The governor selects a p-state from the segment's duty-cycle
    utilization.  Busy time is ``cycles / f(pstate)``; the idle gaps
    inside the segment come from *external* latency and are computed at
    the stock top frequency, so slowing the CPU stretches only the busy
    part.  Fully-busy work therefore scales as ``1/f`` while low-duty
    work stretches sub-linearly -- which is why the paper's CPU-bound
    MySQL runs pay ~5% time for a 5% underclock while the mixed
    commercial runs pay only ~3%.
``DiskAccess``
    Wall time from the disk model, frequency-invariant.  The CPU runs
    the segment's light overlap work (``cpu_overlap_utilization``) at
    the p-state the governor picks for it.
``Idle``
    Everything idles.

A compute or disk segment with no wall time draws nothing at all; an
``Idle`` segment always carries the full idle draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.components import CpuFan, Gpu, Motherboard
from repro.hardware.cpu import (
    Cpu,
    CpuSpec,
    EffectiveVoltageTable,
    PvcSetting,
    STOCK_SETTING,
    e8500_like_spec,
)
from repro.hardware.disk import Disk, DiskEnergy, DiskSpec
from repro.hardware.dvfs import Governor, UtilizationGovernor
from repro.hardware.memory import Memory, MemorySpec
from repro.hardware.psu import Psu, PsuSpec
from repro.hardware.trace import (
    KIND_CLIENT,
    KIND_CPU,
    KIND_DISK,
    KIND_IDLE,
    CompiledTrace,
    Trace,
)

#: Workload classes select which calibrated effective-voltage table
#: applies (see profiles.py): fully CPU-bound runs (MySQL memory engine)
#: versus mixed CPU/I-O runs (commercial disk engine).
CPU_BOUND = "cpu_bound"
IO_MIXED = "io_mixed"


@dataclass(frozen=True)
class PowerInterval:
    """A window of constant per-component power draw."""

    duration_s: float
    cpu_w: float
    memory_w: float
    disk_5v_w: float
    disk_12v_w: float
    board_w: float
    gpu_w: float
    fan_w: float
    label: str = ""


@dataclass
class RunMeasurement:
    """Time and energy for one played trace.

    ``cpu_joules`` corresponds to the paper's EPU-sensor figure;
    ``disk_energy`` to the 5V/12V current-probe figures; ``wall_joules``
    to the Yokogawa wall reading (PSU losses included).
    """

    duration_s: float
    cpu_joules: float
    memory_joules: float
    disk_energy: DiskEnergy
    board_joules: float
    gpu_joules: float
    fan_joules: float
    wall_joules: float
    timeline: list[PowerInterval] = field(default_factory=list)

    @property
    def disk_joules(self) -> float:
        return self.disk_energy.total_joules

    @property
    def dc_joules(self) -> float:
        return (
            self.cpu_joules + self.memory_joules + self.disk_joules
            + self.board_joules + self.gpu_joules + self.fan_joules
        )

    @property
    def avg_cpu_power_w(self) -> float:
        return self.cpu_joules / self.duration_s if self.duration_s else 0.0

    @property
    def avg_wall_power_w(self) -> float:
        return self.wall_joules / self.duration_s if self.duration_s else 0.0

    def component_joules(self) -> dict[str, float]:
        return {
            "cpu": self.cpu_joules,
            "memory": self.memory_joules,
            "disk": self.disk_joules,
            "board": self.board_joules,
            "gpu": self.gpu_joules,
            "fan": self.fan_joules,
        }

    def __add__(self, other: "RunMeasurement") -> "RunMeasurement":
        return RunMeasurement(
            duration_s=self.duration_s + other.duration_s,
            cpu_joules=self.cpu_joules + other.cpu_joules,
            memory_joules=self.memory_joules + other.memory_joules,
            disk_energy=self.disk_energy + other.disk_energy,
            board_joules=self.board_joules + other.board_joules,
            gpu_joules=self.gpu_joules + other.gpu_joules,
            fan_joules=self.fan_joules + other.fan_joules,
            wall_joules=self.wall_joules + other.wall_joules,
            timeline=self.timeline + other.timeline,
        )


class SystemUnderTest:
    """The simulated server (paper Sec. 3.1 configuration by default)."""

    def __init__(
        self,
        cpu_spec: CpuSpec | None = None,
        memory_spec: MemorySpec | None = None,
        disk_spec: DiskSpec | None = None,
        psu_spec: PsuSpec | None = None,
        motherboard: Motherboard | None = None,
        gpu: Gpu | None = None,
        fan: CpuFan | None = None,
        governor: Governor | None = None,
        voltage_tables: dict[str, EffectiveVoltageTable] | None = None,
        has_gpu: bool = True,
        has_disk: bool = True,
        mem_activity_coupling: float = 0.5,
    ):
        self.cpu_spec = cpu_spec if cpu_spec is not None else e8500_like_spec()
        self.memory_spec = memory_spec if memory_spec is not None else MemorySpec()
        self.disk = Disk(disk_spec)
        self.psu = Psu(psu_spec)
        self.motherboard = motherboard if motherboard is not None else Motherboard()
        self.gpu = gpu if gpu is not None else Gpu()
        self.fan = fan if fan is not None else CpuFan()
        self.governor = governor if governor is not None else UtilizationGovernor()
        self.voltage_tables = voltage_tables or {}
        self.has_gpu = has_gpu
        self.has_disk = has_disk
        self.mem_activity_coupling = mem_activity_coupling
        self.setting: PvcSetting = STOCK_SETTING

    # -- configuration -------------------------------------------------

    def apply_setting(self, setting: PvcSetting) -> None:
        """Install a PVC operating point (underclock + voltage downgrade)."""
        self.setting = setting

    def cpu_for(self, workload_class: str = CPU_BOUND) -> Cpu:
        """CPU view under the current setting and workload class."""
        table = self.voltage_tables.get(workload_class)
        return Cpu(self.cpu_spec, self.setting, table)

    def memory_for(self) -> Memory:
        fsb = self.cpu_spec.fsb_hz * self.setting.fsb_scale
        return Memory(self.memory_spec, fsb)

    # -- fixed draws ----------------------------------------------------

    def _board_w(self) -> float:
        return self.motherboard.on_w + self.motherboard.cpu_support_w

    def _gpu_w(self) -> float:
        return self.gpu.idle_w if self.has_gpu else 0.0

    # -- trace playback ---------------------------------------------------

    def run_compiled(
        self,
        compiled: CompiledTrace | Trace,
        workload_class: str = CPU_BOUND,
        with_timeline: bool = False,
    ) -> RunMeasurement:
        """Play one trace under the current PVC setting.

        Per-segment wall time and power come from :meth:`_playback_arrays`;
        the totals are their array sums.  The power *timeline* (one
        :class:`PowerInterval` per segment, labels included) is only
        materialized when ``with_timeline`` is set: sensor sampling
        needs it, sweeps do not.
        """
        if isinstance(compiled, Trace):
            compiled = compiled.compiled()
        (wall, cpu_w, mem_w, disk_5v, disk_12v, board, gpu_w, fan,
         wall_power) = self._playback_arrays(compiled, workload_class)

        timeline: list[PowerInterval] = []
        if with_timeline:
            timeline = [
                PowerInterval(
                    duration_s=float(wall[i]),
                    cpu_w=float(cpu_w[i]),
                    memory_w=float(mem_w[i]),
                    disk_5v_w=float(disk_5v[i]),
                    disk_12v_w=float(disk_12v[i]),
                    board_w=float(board[i]),
                    gpu_w=float(gpu_w[i]),
                    fan_w=float(fan[i]),
                    label=compiled.labels[i],
                )
                for i in range(len(compiled))
            ]
        return RunMeasurement(
            duration_s=float(np.sum(wall)),
            cpu_joules=float(np.sum(cpu_w * wall)),
            memory_joules=float(np.sum(mem_w * wall)),
            disk_energy=DiskEnergy(
                float(np.sum(disk_5v * wall)),
                float(np.sum(disk_12v * wall)),
            ),
            board_joules=float(np.sum(board * wall)),
            gpu_joules=float(np.sum(gpu_w * wall)),
            fan_joules=float(np.sum(fan * wall)),
            wall_joules=float(np.sum(wall_power * wall)),
            timeline=timeline,
        )

    def run_compiled_batch(
        self,
        traces: list[CompiledTrace],
        workload_class: str = CPU_BOUND,
    ) -> list[RunMeasurement]:
        """Play many compiled traces as *one* stacked array operation.

        The traces are concatenated into a single structure-of-arrays
        playback pass (the per-segment math runs once over the whole
        stack), then the per-trace sums are sliced back out of one
        running sum.  This is the fleet-scale hot path: a cluster of
        nodes sharing a PVC setting plays every node's whole timeline
        with one call instead of one :meth:`run_compiled` call per
        query.  Per-trace totals match :meth:`run_compiled` on each
        input to float-summation order, never materializing timelines.
        """
        if not traces:
            return []
        stacked = CompiledTrace.concat(traces)
        (wall, cpu_w, mem_w, disk_5v, disk_12v, board, gpu_w, fan,
         wall_power) = self._playback_arrays(stacked, workload_class)

        lengths = [len(t) for t in traces]
        edges = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=edges[1:])
        filled = edges[1:] > edges[:-1]

        def slice_sums(values: np.ndarray) -> np.ndarray:
            run = np.zeros(len(values) + 1)
            np.cumsum(values, out=run[1:])
            sums = run[edges[1:]] - run[edges[:-1]]
            # A difference keeps only the digits a slice has beside the
            # running total before it: re-sum a slice on its own once
            # that total dwarfs it (more than ten bits lost).
            lossy = filled & (run[edges[:-1]] > sums * 1024.0)
            for i in np.flatnonzero(lossy):
                sums[i] = np.sum(values[edges[i]:edges[i + 1]])
            return sums

        dur = slice_sums(wall)
        cpu_j = slice_sums(cpu_w * wall)
        mem_j = slice_sums(mem_w * wall)
        d5_j = slice_sums(disk_5v * wall)
        d12_j = slice_sums(disk_12v * wall)
        board_j = slice_sums(board * wall)
        gpu_j = slice_sums(gpu_w * wall)
        fan_j = slice_sums(fan * wall)
        wall_j = slice_sums(wall_power * wall)
        return [
            RunMeasurement(
                duration_s=float(dur[i]),
                cpu_joules=float(cpu_j[i]),
                memory_joules=float(mem_j[i]),
                disk_energy=DiskEnergy(float(d5_j[i]), float(d12_j[i])),
                board_joules=float(board_j[i]),
                gpu_joules=float(gpu_j[i]),
                fan_joules=float(fan_j[i]),
                wall_joules=float(wall_j[i]),
            )
            for i in range(len(traces))
        ]

    def _playback_arrays(
        self,
        compiled: CompiledTrace,
        workload_class: str,
    ) -> tuple[np.ndarray, ...]:
        """Per-segment wall times and power draws for vectorized playback.

        Returns ``(wall, cpu_w, mem_w, disk_5v, disk_12v, board, gpu_w,
        fan, wall_power)`` arrays, one entry per segment.
        """
        cpu = self.cpu_for(workload_class)
        memory = self.memory_for()
        n = len(compiled)
        kinds = compiled.kinds
        wall = np.zeros(n)
        cpu_w = np.zeros(n)
        mem_w = np.zeros(n)
        disk_frac = np.zeros(n)

        compute = (kinds == KIND_CPU) | (kinds == KIND_CLIENT)
        if compute.any():
            stock_top = self.cpu_spec.stock_frequency_hz
            utils = compiled.utilization[compute]
            cyc = compiled.cycles[compute]
            seg_wall = np.zeros(len(cyc))
            seg_cpu_w = np.zeros(len(cyc))
            seg_mem_w = np.zeros(len(cyc))
            for u in np.unique(utils):
                sel = utils == u
                pstate = self.governor.select_pstate(cpu, float(u))
                freq = cpu.frequency_hz(pstate)
                busy_per_cycle = 1.0 / freq
                gap_per_cycle = (1.0 - u) / (u * stock_top)
                seg_wall[sel] = cyc[sel] * (busy_per_cycle + gap_per_cycle)
                busy_frac = busy_per_cycle / (busy_per_cycle + gap_per_cycle)
                seg_cpu_w[sel] = (
                    busy_frac * cpu.busy_power_w(pstate)
                    + (1.0 - busy_frac) * cpu.idle_power_w()
                )
                seg_mem_w[sel] = memory.power_w(
                    min(1.0, busy_frac * self.mem_activity_coupling)
                )
            zero = seg_wall <= 0.0
            seg_cpu_w[zero] = 0.0
            seg_mem_w[zero] = 0.0
            wall[compute] = seg_wall
            cpu_w[compute] = seg_cpu_w
            mem_w[compute] = seg_mem_w

        disk = kinds == KIND_DISK
        if disk.any():
            if not self.has_disk:
                raise ValueError("trace touches the disk but the SUT has none")
            dwall = self.disk.access_times_s(
                compiled.num_ops[disk], compiled.bytes_total[disk],
                compiled.sequential[disk], compiled.write[disk],
            )
            utils = compiled.utilization[disk]
            seg_cpu_w = np.zeros(len(dwall))
            for u in np.unique(utils):
                pstate = self.governor.select_pstate(cpu, float(u))
                seg_cpu_w[utils == u] = (
                    u * cpu.busy_power_w(pstate)
                    + (1.0 - u) * cpu.idle_power_w()
                )
            seg_mem_w = np.full(len(dwall), memory.power_w(min(1.0, 0.2)))
            zero = dwall <= 0.0
            seg_cpu_w[zero] = 0.0
            seg_mem_w[zero] = 0.0
            wall[disk] = dwall
            cpu_w[disk] = seg_cpu_w
            mem_w[disk] = seg_mem_w
            disk_frac[disk] = np.where(zero, 0.0, 1.0)

        idle = kinds == KIND_IDLE
        if idle.any():
            wall[idle] = compiled.seconds[idle]
            cpu_w[idle] = cpu.idle_power_w()
            mem_w[idle] = memory.idle_power_w()

        # Compute and disk segments with no wall time carry zero fixed
        # draws too (idle segments always carry full draws).
        live = (wall > 0.0) | idle
        board = np.where(live, self._board_w(), 0.0)
        gpu_w = np.where(live, self._gpu_w(), 0.0)
        fan = np.where(live, self.fan.w, 0.0)
        if self.has_disk:
            spec = self.disk.spec
            disk_5v = np.where(
                live,
                disk_frac * spec.active_5v_w
                + (1.0 - disk_frac) * spec.idle_5v_w,
                0.0,
            )
            disk_12v = np.where(
                live,
                disk_frac * spec.active_12v_w
                + (1.0 - disk_frac) * spec.idle_12v_w,
                0.0,
            )
        else:
            disk_5v = np.zeros(n)
            disk_12v = np.zeros(n)

        dc_total = cpu_w + mem_w + disk_5v + disk_12v + board + gpu_w + fan
        wall_power = self.psu.wall_power_w_array(dc_total)
        return (wall, cpu_w, mem_w, disk_5v, disk_12v, board, gpu_w, fan,
                wall_power)

    # -- idle / buildup views (Table 1) ---------------------------------

    def idle_dc_power_w(
        self,
        with_cpu: bool = True,
        dimm_count: int | None = None,
        with_gpu: bool = True,
        with_disk: bool | None = None,
    ) -> float:
        """DC draw of the idle system with a subset of components installed.

        Supports the Table 1 buildup experiment: the machine is assembled
        piece by piece and the (wall) power is read at each step.
        """
        total = self.motherboard.on_w
        if with_cpu:
            cpu = Cpu(self.cpu_spec, STOCK_SETTING)
            total += self.motherboard.cpu_support_w
            total += cpu.idle_power_w()
            total += self.fan.w
        count = self.memory_spec.dimm_count if dimm_count is None else dimm_count
        if count > 0:
            spec = MemorySpec(
                dimm_count=count,
                dimm_gb=self.memory_spec.dimm_gb,
                channel_overhead_w=self.memory_spec.channel_overhead_w,
                background_w_per_dimm=self.memory_spec.background_w_per_dimm,
                active_w_per_dimm=self.memory_spec.active_w_per_dimm,
                fsb_multiplier=self.memory_spec.fsb_multiplier,
                stock_fsb_hz=self.memory_spec.stock_fsb_hz,
            )
            total += Memory(spec).idle_power_w()
        if with_gpu and self.has_gpu:
            total += self.gpu.idle_w
        disk = self.has_disk if with_disk is None else with_disk
        if disk:
            total += self.disk.spec.idle_power_w
        return total

    def idle_wall_power_w(self, **kwargs) -> float:
        """Wall draw of the idle system (PSU losses included)."""
        return self.psu.wall_power_w(self.idle_dc_power_w(**kwargs))

    def soft_off_wall_power_w(self) -> float:
        """Wall draw with the system plugged in but soft-off (Table 1 row 1)."""
        return self.psu.spec.standby_w + self.motherboard.standby_w
