"""Fault injection over a consolidating fleet: crashes, failed wakes,
stragglers -- and the recovery layer that absorbs them.

The consolidation savings in every other example assume a perfectly
obedient fleet.  This scenario runs the *canonical* fault plan from
:mod:`repro.measurement.ablations` -- the same configuration
``benchmarks/bench_fault_recovery.py`` gates and ``BENCH_perf.json``'s
``faults`` record tracks -- against the same Poisson stream in two
fleet modes:

* ``spread``       -- every node awake, round-robin: the traditional
                      baseline, maximally fault-tolerant by
                      overprovisioning;
* ``consolidate``  -- dynamic re-consolidation plus the recovery
                      layer: lost in-flight work requeues with
                      exponential backoff, routers skip crashed and
                      unresponsive nodes, and a replacement is
                      re-woken when a consolidated node dies.

The plan exercises all four fault kinds: a straggler window inflates
the hot node's service times, a crash then kills it mid-batch, the
obvious replacement refuses to wake while the crash is fresh, and a
transient-unavailability window keeps a fourth node out of the pool.
The claim on display: consolidation's energy win *survives* the
faults at an equal SLA-miss budget, and no query is silently lost --
every arrival is served or visibly dead-lettered.

The same plan is available as JSON for the CLI
(``examples/fault_plan.json``, times in reference-SF stream seconds):

    python -m repro cluster --policy dynamic --sla 1.0 \\
        --faults examples/fault_plan.json --retry-max 4

    python examples/faulty_fleet.py [scale_factor]
"""

import sys

from repro.db.profiles import mysql_profile
from repro.measurement.ablations import run_fault_ablation
from repro.workloads.tpch.generator import tpch_database


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01

    print(f"== fault injection & recovery (SF {scale_factor}) ==\n")
    db = tpch_database(scale_factor, mysql_profile(), seed=0,
                       tables=["lineitem"])
    ablation = run_fault_ablation(db, scale_factor=scale_factor)
    print(f"{ablation.arrivals} arrivals over {ablation.nodes} nodes; "
          f"retry x{ablation.retry_max}, "
          f"backoff {ablation.retry_backoff_s:g} s, "
          f"SLA {ablation.sla_s:g} s "
          f"(budget {ablation.sla_budget:.0%} of arrivals)\n")

    print(f"{'mode':12s} {'energy J':>9} {'SLA miss':>8} {'served':>6} "
          f"{'shed':>5} {'retries':>7} {'wasted J':>8}")
    for name, stats in ablation.modes.items():
        f = stats["faults"]
        print(f"{name:12s} {stats['wall_joules']:9.1f} "
              f"{stats['sla_misses']:8d} {stats['served']:6d} "
              f"{stats['shed']:5d} {f['retries']:7d} "
              f"{f['wasted_joules']:8.2f}")

    consolidate = ablation.modes["consolidate"]
    f = consolidate["faults"]
    print(f"\nfaults that bit (consolidate mode): {f['crashes']} crash, "
          f"{f['failed_wakes']} failed wakes, {f['requeued']} queries "
          f"requeued off the crashed node, {f['dead_lettered']} "
          f"dead-lettered")
    split = consolidate["sla_split"]
    print(f"SLA attainment: {split['affected_attainment']:.1%} for the "
          f"{split['affected_total']:.0f} fault-affected queries vs "
          f"{split['unaffected_attainment']:.1%} for the "
          f"{split['unaffected_total']:.0f} untouched ones")
    print(f"\nconsolidate + recovery saves "
          f"{ablation.consolidate_vs_spread_saving:.1%} energy vs "
          f"always-awake spread"
          + (" (gate holds)" if ablation.consolidate_beats_spread
             else " -- GATE FAILED"))
    print("conservation: every arrival served exactly once or visibly "
          "dead-lettered"
          + (" (holds)" if ablation.conserved else " -- VIOLATED"))


if __name__ == "__main__":
    main()
