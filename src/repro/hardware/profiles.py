"""Calibrated system profile reproducing the paper's test machine.

:func:`paper_sut` assembles a :class:`SystemUnderTest` whose component
constants reproduce the paper's measured magnitudes (Table 1 buildup,
Sec. 3.2/3.5 CPU and disk Joule figures), and whose per-setting
*effective voltage* tables are derived analytically from the paper's
reported EDP/energy ratios (Figs. 1-4).

Why effective voltages?  The paper reads CPU power from the board's EPU
sensor by sampling a GUI, and validates (Fig. 4) that the observed EDP
tracks ``V^2/F`` using *measured average* voltage and frequency.  We
therefore invert the published energy ratios through the simulator's own
trace algebra to obtain, per PVC setting, the effective top-p-state
voltage that makes the simulated pipeline land on the published curves.
The inversion is exact for the two workload shapes the paper measures:

* ``cpu_bound`` (MySQL memory engine): the trace is pure full-duty CPU
  work, so per stock-second of work
  ``E(u, V) = P_static/(1-u) + c_eff * V^2 * F0``.
* ``io_mixed`` (commercial DBMS): a fraction ``alpha`` of stock wall time
  is full-duty CPU work and the rest is disk-bound with light CPU
  overlap at the lowest p-state.

Each inversion solves the linear-in-``V^2`` equation for the target
energy ratio.  The resulting voltages are *effective* values: they
absorb the sensor's idiosyncrasies and are lower than plausible VID
levels for the commercial workload -- which is exactly the gap between
the paper's measured -49% CPU energy at a 5% underclock and what pure
``C.V^2.F`` physics would allow.
"""

from __future__ import annotations

from repro.calibration import targets
from repro.hardware.cpu import (
    CpuSpec,
    EffectiveVoltageTable,
    PvcSetting,
    VoltageDowngrade,
    e8500_like_spec,
)
from repro.hardware.components import CpuFan, Gpu, Motherboard
from repro.hardware.disk import DiskSpec
from repro.hardware.memory import MemorySpec
from repro.hardware.psu import PsuSpec
from repro.hardware.system import CPU_BOUND, IO_MIXED, SystemUnderTest

#: The PVC sweep the paper evaluates: 5/10/15% underclock x small/medium.
UNDERCLOCK_LEVELS = [5, 10, 15]
DOWNGRADES = [VoltageDowngrade.SMALL, VoltageDowngrade.MEDIUM]

#: CPU duty cycle overlapping disk windows in the io_mixed model.
DISK_OVERLAP_UTILIZATION = 0.10

#: Effective CPU duty cycle over the *whole* non-scalable window of the
#: commercial workload (disk overlap at ~0.17 duty for ~10% of wall,
#: stalls at idle duty ~0.08 for ~29%, a sliver of client work), used by
#: the io_mixed voltage inversion.  Derived from the simulated Q5
#: composition.
IO_MIXED_NONBUSY_DUTY = 0.126


def pvc_settings_grid(include_stock: bool = True) -> list[PvcSetting]:
    """The paper's 7 operating points (stock + 3 underclocks x 2 downgrades)."""
    grid: list[PvcSetting] = []
    if include_stock:
        grid.append(PvcSetting())
    for downgrade in DOWNGRADES:
        for pct in UNDERCLOCK_LEVELS:
            grid.append(PvcSetting(pct, downgrade))
    return grid


def _profile_name(workload_class: str) -> str:
    return "mysql" if workload_class == CPU_BOUND else "commercial"


def _downgrade_name(downgrade: VoltageDowngrade) -> str:
    return downgrade.value


def _solve_cpu_bound_voltage(spec: CpuSpec, underclock_pct: float,
                             energy_ratio: float) -> float:
    """Invert the pure-CPU trace algebra for the effective top voltage."""
    scale = 1.0 - underclock_pct / 100.0
    f0 = spec.stock_frequency_hz
    v0 = spec.top_pstate.vid_volts
    ps = spec.static_power_w
    # Per stock-second of work: E = Ps/(1-u) + c*V^2*F0 ; E0 at stock.
    e0 = ps + spec.c_eff * v0 * v0 * f0
    v_sq = (energy_ratio * e0 - ps / scale) / (spec.c_eff * f0)
    if v_sq <= 0:
        raise ValueError(
            "target energy ratio is unreachable for this CPU spec"
        )
    return v_sq ** 0.5


def _solve_io_mixed_voltage(spec: CpuSpec, underclock_pct: float,
                            energy_ratio: float,
                            busy_fraction: float,
                            nonbusy_duty: float) -> float:
    """Invert the mixed CPU/disk trace algebra for the effective voltage."""
    scale = 1.0 - underclock_pct / 100.0
    f0 = spec.stock_frequency_hz
    v0 = spec.top_pstate.vid_volts
    ps = spec.static_power_w
    alpha = busy_fraction
    low = spec.lowest_pstate
    top = spec.top_pstate
    # Lowest-p-state dynamic coefficient relative to c_eff * V^2 * F0:
    # voltage scales by the VID ratio, frequency by the multiplier ratio,
    # and the non-scalable window runs at ``nonbusy_duty``.
    vid_ratio_sq = (low.vid_volts / top.vid_volts) ** 2
    mult_ratio = low.multiplier / top.multiplier
    kappa = vid_ratio_sq * mult_ratio * nonbusy_duty
    # Per stock-second: E = alpha*Ps/(1-u) + (1-alpha)*Ps
    #                      + c*F0*V^2*(alpha + (1-alpha)*kappa*(1-u))
    e0 = (
        ps
        + spec.c_eff * f0 * v0 * v0
        * (alpha + (1.0 - alpha) * kappa)
    )
    fixed = alpha * ps / scale + (1.0 - alpha) * ps
    coeff = spec.c_eff * f0 * (alpha + (1.0 - alpha) * kappa * scale)
    v_sq = (energy_ratio * e0 - fixed) / coeff
    if v_sq <= 0:
        raise ValueError(
            "target energy ratio is unreachable for this CPU spec"
        )
    return v_sq ** 0.5


def build_voltage_table(
    workload_class: str,
    spec: CpuSpec | None = None,
    busy_fraction: float = targets.COMMERCIAL_BUSY_FRACTION,
    nonbusy_duty: float = IO_MIXED_NONBUSY_DUTY,
) -> EffectiveVoltageTable:
    """Derive the calibrated effective-voltage table for a workload class."""
    spec = spec if spec is not None else e8500_like_spec()
    profile = _profile_name(workload_class)
    entries: dict[tuple[float, VoltageDowngrade], float] = {}
    v0 = spec.top_pstate.vid_volts
    entries[(0.0, VoltageDowngrade.NONE)] = v0
    for downgrade in DOWNGRADES:
        for pct in UNDERCLOCK_LEVELS:
            ratio = targets.energy_ratio_target(
                profile, _downgrade_name(downgrade), pct
            )
            if workload_class == CPU_BOUND:
                volts = _solve_cpu_bound_voltage(spec, pct, ratio)
            else:
                volts = _solve_io_mixed_voltage(
                    spec, pct, ratio, busy_fraction, nonbusy_duty
                )
            entries[(float(pct), downgrade)] = volts
    return EffectiveVoltageTable(entries)


def paper_memory_spec() -> MemorySpec:
    """2 x 1 GB DDR3; idle draws reproduce Table 1 rows 4-5."""
    return MemorySpec(
        dimm_count=2,
        dimm_gb=1.0,
        channel_overhead_w=2.55,
        background_w_per_dimm=1.45,
        active_w_per_dimm=1.3,
    )


def paper_disk_spec() -> DiskSpec:
    """WD Caviar SE16-like drive; calibrated for Sec. 3.5 and Fig. 5."""
    return DiskSpec()


def paper_sut(has_gpu: bool = True, has_disk: bool = True) -> SystemUnderTest:
    """The calibrated system under test (paper Sec. 3.1 machine)."""
    cpu_spec = e8500_like_spec()
    tables = {
        CPU_BOUND: build_voltage_table(CPU_BOUND, cpu_spec),
        IO_MIXED: build_voltage_table(IO_MIXED, cpu_spec),
    }
    return SystemUnderTest(
        cpu_spec=cpu_spec,
        memory_spec=paper_memory_spec(),
        disk_spec=paper_disk_spec(),
        psu_spec=PsuSpec(),
        motherboard=Motherboard(standby_w=4.7, on_w=13.5, cpu_support_w=18.6),
        gpu=Gpu(idle_w=11.6),
        fan=CpuFan(w=1.8),
        voltage_tables=tables,
        has_gpu=has_gpu,
        has_disk=has_disk,
    )


def default_system() -> SystemUnderTest:
    """Alias used by the public API: the calibrated paper machine."""
    return paper_sut()
