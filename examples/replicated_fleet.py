"""Partitioned tables with replica placement, under crash recovery.

Every other example assumes full replication: any node can serve any
query.  This scenario hash-partitions lineitem into replicated shards
chained across the fleet (`repro.cluster.placement`) and runs the
*canonical* replication fault plan from :mod:`repro.measurement.ablations`
-- the same configuration ``benchmarks/bench_replication.py`` gates
and ``BENCH_perf.json``'s ``replication`` record tracks -- against the
same Poisson stream in two fleet modes:

* ``spread``       -- every node awake, round-robin over each
                      statement's replica set;
* ``consolidate``  -- dynamic re-consolidation under the quorum
                      constraint: the awake set always covers every
                      shard, and a node is never re-slept while it is
                      the last awake holder of one.

Mid-run, a crash kills node00 -- taking one replica of every shard it
held.  The placement layer re-replicates: a live holder streams each
under-replicated shard to a node not yet holding it, as compiled-trace
copy work billed in joules on *both* endpoints.  The claims on
display: consolidation's energy win survives re-replication at an
equal SLA-miss budget, every shard is back at its replica target by
the end of the run, and no query is silently lost.

The same layout is available as JSON for the CLI
(``examples/placement.json``):

    python -m repro cluster --placement examples/placement.json \\
        --policy dynamic --sla 1.0

    python -m repro cluster --policy least --shards 4 --replicas 2 \\
        --faults examples/fault_plan.json --retry-backoff 0.05

    python examples/replicated_fleet.py [scale_factor]
"""

import sys

from repro.db.profiles import mysql_profile
from repro.measurement.ablations import run_replication_ablation
from repro.workloads.tpch.generator import tpch_database


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01

    print(f"== replicated shards & recovery (SF {scale_factor}) ==\n")
    db = tpch_database(scale_factor, mysql_profile(), seed=0,
                       tables=["lineitem"])
    ablation = run_replication_ablation(db, scale_factor=scale_factor)
    print(f"{ablation.arrivals} arrivals over {ablation.nodes} nodes; "
          f"{ablation.shards} shards x {ablation.replicas} replicas "
          f"(quorum {ablation.quorum}), SLA {ablation.sla_s:g} s "
          f"(budget {ablation.sla_budget:.0%} of arrivals)\n")

    print(f"{'mode':12s} {'energy J':>9} {'SLA miss':>8} {'served':>6} "
          f"{'shed':>5} {'copies':>6} {'copy J':>7} {'holders':>7}")
    for name, stats in ablation.modes.items():
        f = stats["faults"]
        print(f"{name:12s} {stats['wall_joules']:9.1f} "
              f"{stats['sla_misses']:8d} {stats['served']:6d} "
              f"{stats['shed']:5d} {f['re_replications']:6d} "
              f"{f['copy_joules']:7.2f} "
              f"{stats['min_live_holders']:7d}")

    consolidate = ablation.modes["consolidate"]
    f = consolidate["faults"]
    print(f"\nthe crash bit the placement: {f['crashes']} crash took a "
          f"replica of every shard node00 held; {f['re_replications']} "
          f"copies restored them ({f['copy_s']:.2f} s of copy work, "
          f"{f['copy_joules']:.1f} J billed on both endpoints)")
    print(f"\nquorum-aware consolidation saves "
          f"{ablation.consolidate_vs_spread_saving:.1%} energy vs "
          f"always-awake spread while re-replication is in flight"
          + (" (gate holds)" if ablation.consolidate_beats_spread
             else " -- GATE FAILED"))
    print("replication restored: every shard back at its replica "
          "target on live nodes"
          + (" (holds)" if ablation.restored else " -- VIOLATED"))
    print("conservation: every arrival served exactly once or visibly "
          "dead-lettered"
          + (" (holds)" if ablation.conserved else " -- VIOLATED"))


if __name__ == "__main__":
    main()
