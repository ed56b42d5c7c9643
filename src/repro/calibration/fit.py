"""Full-pipeline reproduction checks against the paper's numbers.

Each function runs the *actual* stack (SQL -> plan -> execute -> counters
-> trace -> simulated machine) at a small scale factor and returns
paper-vs-measured rows.  ``tests/calibration/`` asserts the residuals
against their tolerances and ``benchmarks/e2e/reference.json`` records
all 47 measured values at seed 0.  Ratios are scale-invariant by
construction (all work quantities scale linearly with data size and the
memory limits scale along), so a small scale factor reproduces the
paper-scale ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.calibration import targets
from repro.core.pvc.sweep import PvcSweep
from repro.core.qed.executor import QedExecutor
from repro.db.profiles import commercial_profile, mysql_profile
from repro.hardware.profiles import paper_sut
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_workload
from repro.workloads.tpch.generator import tpch_database
from repro.workloads.tpch.queries import Q5_TABLES, q5_paper_workload


@dataclass(frozen=True)
class Residual:
    label: str
    paper: float
    measured: float

    @property
    def abs_error(self) -> float:
        return abs(self.measured - self.paper)

    @property
    def rel_error(self) -> float:
        return self.abs_error / abs(self.paper) if self.paper else 0.0


def pvc_residuals(profile_name: str, scale_factor: float = 0.02,
                  seed: int = 0) -> list[Residual]:
    """Energy/time ratio residuals for the Fig. 1-3 PVC sweep."""
    if profile_name == "commercial":
        profile = commercial_profile(scale_factor)
        time_target = targets.commercial_time_ratio
    else:
        profile = mysql_profile()
        time_target = targets.mysql_time_ratio
    db = tpch_database(scale_factor, profile, seed=seed, tables=Q5_TABLES)
    db.warm()
    # The default grid is the paper's: small then medium downgrade,
    # each at 5/10/15% underclock.
    curve = PvcSweep(
        WorkloadRunner(db, paper_sut()), q5_paper_workload()
    ).run()
    residuals: list[Residual] = []
    for ratio in curve.ratios()[1:]:  # [0] is the stock baseline
        pct = ratio.setting.underclock_pct
        downgrade = ratio.setting.downgrade.value
        residuals.append(Residual(
            f"{profile_name} {downgrade} {pct}% energy",
            targets.energy_ratio_target(profile_name, downgrade, pct),
            ratio.energy_ratio,
        ))
        residuals.append(Residual(
            f"{profile_name} {downgrade} {pct}% time",
            time_target(pct),
            ratio.time_ratio,
        ))
    return residuals


def commercial_absolute_residuals(scale_factor: float = 0.02,
                                  seed: int = 0) -> list[Residual]:
    """Stock commercial magnitudes (time, CPU J, disk J), SF-normalized."""
    db = tpch_database(
        scale_factor, commercial_profile(scale_factor), seed=seed,
        tables=Q5_TABLES,
    )
    db.warm()
    sut = paper_sut()
    runner = WorkloadRunner(db, sut)
    run = runner.run_queries(q5_paper_workload()).total
    return [
        Residual("stock workload seconds",
                 targets.COMMERCIAL_STOCK_SECONDS,
                 run.duration_s / scale_factor),
        Residual("stock CPU joules",
                 targets.COMMERCIAL_STOCK_CPU_JOULES,
                 run.cpu_joules / scale_factor),
        Residual("stock disk joules",
                 targets.WARM_DISK_JOULES,
                 run.disk_joules / scale_factor),
    ]


def warm_cold_residuals(scale_factor: float = 0.02,
                        seed: int = 0) -> list[Residual]:
    """Section 3.5 warm/cold run magnitudes, SF-normalized."""
    db = tpch_database(
        scale_factor, commercial_profile(scale_factor), seed=seed,
        tables=Q5_TABLES,
    )
    sut = paper_sut()
    runner = WorkloadRunner(db, sut)
    queries = q5_paper_workload()
    db.cool()
    cold = runner.run_queries(queries).total
    warm = runner.run_queries(queries).total  # pool warmed by cold run
    return [
        Residual("warm seconds", targets.COMMERCIAL_STOCK_SECONDS,
                 warm.duration_s / scale_factor),
        Residual("warm CPU joules", targets.COMMERCIAL_STOCK_CPU_JOULES,
                 warm.cpu_joules / scale_factor),
        Residual("warm disk joules", targets.WARM_DISK_JOULES,
                 warm.disk_joules / scale_factor),
        Residual("cold seconds", targets.COLD_RUN_SECONDS,
                 cold.duration_s / scale_factor),
        Residual("cold CPU joules", targets.COLD_CPU_JOULES,
                 cold.cpu_joules / scale_factor),
        Residual("cold disk joules", targets.COLD_DISK_JOULES,
                 cold.disk_joules / scale_factor),
    ]


def qed_residuals(scale_factor: float = 0.05, seed: int = 0,
                  batch_sizes: tuple[int, ...] = (35, 40, 45, 50),
                  ) -> list[Residual]:
    """Figure 6 energy/response ratio residuals.

    Unlike the PVC ratios, QED ratios carry per-query fixed overheads
    (statement setup, client round trip) that do not scale with data
    size, so very small scale factors flatter QED.  SF 0.05 keeps the
    overhead share within a percent of the paper's SF 0.5 while staying
    fast enough for CI.
    """
    db = tpch_database(scale_factor, mysql_profile(), seed=seed,
                       tables=["lineitem"])
    executor = QedExecutor(WorkloadRunner(db, paper_sut()))
    residuals: list[Residual] = []
    for n in batch_sizes:
        comparison = executor.compare(selection_workload(n).queries)
        e_delta, r_delta, _ = targets.QED_POINTS[n]
        residuals.append(Residual(
            f"qed batch {n} energy ratio", 1.0 + e_delta,
            comparison.energy_ratio,
        ))
        residuals.append(Residual(
            f"qed batch {n} response ratio", 1.0 + r_delta,
            comparison.response_ratio,
        ))
    return residuals


def table1_residuals() -> list[Residual]:
    """Table 1 buildup wall watts."""
    sut = paper_sut()
    residuals = [Residual(
        targets.TABLE1_ROWS[0].description,
        targets.TABLE1_ROWS[0].watts,
        sut.soft_off_wall_power_w(),
    )]
    for row in targets.TABLE1_ROWS[1:]:
        residuals.append(Residual(
            row.description, row.watts,
            sut.idle_wall_power_w(
                with_cpu=row.with_cpu,
                dimm_count=row.dimm_count,
                with_gpu=row.with_gpu,
                with_disk=False,
            ),
        ))
    return residuals


def fig5_residuals() -> list[Residual]:
    """Figure 5 random-access improvement factors over 4 KB blocks."""
    sut = paper_sut()
    base = sut.disk.throughput_bps(4096, sequential=False)
    residuals = []
    for block, factor in targets.FIG5_RANDOM_IMPROVEMENT.items():
        measured = sut.disk.throughput_bps(block, sequential=False) / base
        residuals.append(Residual(
            f"random {block // 1024}KB improvement", factor, measured
        ))
    return residuals


def headline_residuals(scale_factor: float = 0.02,
                       seed: int = 0) -> list[Residual]:
    """The abstract's headline numbers for both PVC profiles."""
    out: list[Residual] = []
    for profile_name, (e_delta, t_delta) in targets.PVC_HEADLINES.items():
        rows = pvc_residuals(profile_name, scale_factor, seed=seed)
        for r in rows:
            if r.label.endswith("medium 5% energy"):
                out.append(Residual(
                    f"{profile_name} headline energy", 1.0 + e_delta,
                    r.measured,
                ))
            if r.label.endswith("medium 5% time"):
                out.append(Residual(
                    f"{profile_name} headline time", 1.0 + t_delta,
                    r.measured,
                ))
    return out
