"""Time/energy plan costing: the paper's energy-aware optimizer hook.

The paper argues a DBMS should "consider energy consumption as a
first-class metric ... when planning and processing queries" and lists
query optimization among the affected components.  This module estimates
a physical plan's (time, energy) *before execution* from the
optimizer's cardinality estimates, the engine profile's cycle costs,
and the machine's power model -- the same translation the executor's
counters go through afterwards, so estimates and measurements share
units and assumptions.

Plans can then be ranked by ``CostWeights`` (pure time = classical
optimizer, pure energy, or a blend) with :func:`rank_plans`.
"""

from __future__ import annotations

from repro.db.plan.cost import CostEstimate, CostWeights
from repro.db.plan.physical import (
    PhysAggregate,
    PhysDistinct,
    PhysFilter,
    PhysHashJoin,
    PhysLimit,
    PhysNode,
    PhysProject,
    PhysScan,
    PhysSort,
)
from repro.db.profiles import EngineProfile
from repro.hardware.cpu import Cpu
from repro.hardware.system import SystemUnderTest


class PlanCoster:
    """Estimates plan resource usage on a given machine."""

    def __init__(self, profile: EngineProfile, sut: SystemUnderTest):
        self.profile = profile
        self.sut = sut
        cpu: Cpu = sut.cpu_for(profile.workload_class)
        self._freq_hz = cpu.top_frequency_hz
        self._busy_w = cpu.busy_power_w(cpu.spec.top_pstate)
        self._idle_w = cpu.idle_power_w()
        self._disk_active_w = sut.disk.spec.active_power_w

    # -- public API ----------------------------------------------------

    def cost(self, plan: PhysNode) -> CostEstimate:
        """Estimated (time, energy) for the plan, per-statement setup
        cost included."""
        cycles, disk_s = self._walk(plan)
        cycles += self.profile.query_overhead_cycles
        rows = self._rows_in(plan)
        stall_s = rows * self.profile.stall_ns_per_row * 1e-9
        if self.profile.temp_write_bytes_per_row:
            disk_s += (
                rows * self.profile.temp_write_bytes_per_row
                / self.sut.disk.spec.seq_rate_bps
            )
        cpu_s = cycles / self._freq_hz
        time_s = cpu_s + disk_s + stall_s
        energy_j = (
            cpu_s * self._busy_w
            + (disk_s + stall_s) * self._idle_w
            + disk_s * self._disk_active_w
        )
        return CostEstimate(time_s=time_s, energy_j=energy_j)

    def weighted_cost(self, plan: PhysNode, weights: CostWeights) -> float:
        estimate = self.cost(plan)
        return estimate.weighted(weights.w_time, weights.w_energy)

    # -- per-node accounting --------------------------------------------

    def _rows_in(self, node: PhysNode) -> float:
        total = node.est_rows
        for child in node.children():
            total += self._rows_in(child)
        return total

    def _walk(self, node: PhysNode) -> tuple[float, float]:
        """(CPU cycles, disk seconds) for the subtree rooted at node."""
        cycles = 0.0
        disk_s = 0.0
        for child in node.children():
            child_cycles, child_disk = self._walk(child)
            cycles += child_cycles
            disk_s += child_disk
        profile = self.profile
        if isinstance(node, PhysScan):
            cycles += node.est_rows * profile.cycles_per_row_scan
            if node.predicate is not None:
                cycles += node.est_rows * profile.cycles_per_comparison
        elif isinstance(node, PhysHashJoin):
            cycles += node.build.est_rows * profile.cycles_per_hash_build
            cycles += node.probe.est_rows * profile.cycles_per_hash_probe
            cycles += (
                len(node.post_predicates)
                * node.est_rows * profile.cycles_per_comparison
            )
            disk_s += self._spill_seconds(
                node.build.est_rows, node.probe.est_rows
            )
        elif isinstance(node, PhysFilter):
            cycles += node.child.est_rows * profile.cycles_per_comparison
        elif isinstance(node, (PhysAggregate, PhysDistinct)):
            cycles += node.child.est_rows * profile.cycles_per_group_row
        elif isinstance(node, PhysSort):
            import math

            n = max(2.0, node.child.est_rows)
            cycles += n * math.log2(n) * profile.cycles_per_sort_row
        elif isinstance(node, PhysProject):
            cycles += node.child.est_rows * profile.cycles_per_arith
        elif isinstance(node, PhysLimit):
            pass
        return cycles, disk_s

    def _spill_seconds(self, build_rows: float, probe_rows: float) -> float:
        """Hybrid hash-join spill time, estimated from row counts."""
        if self.profile.storage != "disk":
            return 0.0
        row_bytes = 48.0  # planning-time width guess
        build_bytes = build_rows * row_bytes
        if build_bytes <= self.profile.work_mem_bytes:
            return 0.0
        overflow = 1.0 - self.profile.work_mem_bytes / build_bytes
        volume = (build_bytes + probe_rows * row_bytes) * overflow
        # written then read back
        return 2.0 * volume / self.sut.disk.spec.seq_rate_bps


def rank_plans(
    plans: list[PhysNode],
    coster: PlanCoster,
    weights: CostWeights,
) -> list[tuple[PhysNode, CostEstimate]]:
    """Order candidate plans by the weighted objective (best first)."""
    scored = [(plan, coster.cost(plan)) for plan in plans]
    scored.sort(
        key=lambda item: item[1].weighted(weights.w_time, weights.w_energy)
    )
    return scored
