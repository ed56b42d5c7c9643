"""Master-queue QED: fleet-wide batching from the always-on master.

The paper's QED puts the admission queue on the master, not on the
workers: every arrival queues centrally, pending queries are
partitioned by *mergeable template* (same select list + table + plain
selection shape), and each partition dispatches merged batches to the
fleet when its threshold or timeout fires.  Non-mergeable shapes flow
through a pass-through partition as singletons.

This example runs the canonical mixed-template stream (the same
configuration ``benchmarks/bench_ablation_qed.py`` gates and
``BENCH_perf.json``'s ``qed`` record tracks) three ways:

* ``off``    -- no queueing: every arrival runs alone;
* ``node``   -- a private QED queue per node behind a round-robin load
                balancer: batches only merge queries that happened to
                land on the same node, and mixed batches degrade to
                singleton executions;
* ``master`` -- one master queue partitioned by mergeable template:
                batches form fleet-wide, so they are larger, always
                mergeable, and cheaper to serve.

    python examples/master_qed.py [scale_factor]
"""

import sys

from repro.cluster import (
    ClusterSimulator,
    LeastLoadedRouter,
    MasterQueue,
    uniform_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.db.profiles import mysql_profile
from repro.measurement.ablations import (
    QED_NODES,
    QED_REFERENCE_SF,
    QED_THRESHOLD,
    QED_MAX_WAIT_S,
    qed_ablation_stream,
    run_qed_ablation,
)
from repro.workloads.tpch.generator import tpch_database


#: Half the canonical stream keeps the example quick.
ARRIVALS = 300


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01

    print(f"== master-queue QED (SF {scale_factor}) ==\n")
    db = tpch_database(scale_factor, mysql_profile(), seed=0,
                       tables=["lineitem"])
    ablation = run_qed_ablation(db, scale_factor=scale_factor,
                                arrivals=ARRIVALS)

    print(f"{ablation.arrivals} arrivals over {ablation.nodes} nodes, "
          f"threshold {ablation.threshold}, "
          f"max wait {ablation.max_wait_s:g} s, "
          f"SLA {ablation.sla_s:g} s\n")
    print(f"{'mode':8s} {'energy J':>9} {'SLA miss':>8} {'batches':>7} "
          f"{'mean':>5} {'fallbacks':>9}")
    baseline_j = ablation.modes["off"]["wall_joules"]
    for name, stats in ablation.modes.items():
        saving = 1.0 - stats["wall_joules"] / baseline_j
        print(f"{name:8s} {stats['wall_joules']:9.1f} "
              f"{stats['sla_misses']:8d} "
              f"{stats.get('qed_batches', 0):7d} "
              f"{stats.get('qed_mean_batch_size', 0.0):5.1f} "
              f"{stats.get('qed_fallback_batches', 0):9d}"
              + (f"   (saves {saving:.1%})" if saving > 1e-6 else ""))

    # The master queue's per-partition view: one partition per
    # mergeable template plus the pass-through singletons.
    stream = qed_ablation_stream(scale_factor, ARRIVALS)
    max_wait = QED_MAX_WAIT_S * scale_factor / QED_REFERENCE_SF
    sim = ClusterSimulator(
        db, uniform_fleet(QED_NODES), LeastLoadedRouter(),
        master_queue=MasterQueue(
            BatchPolicy(QED_THRESHOLD, max_wait_s=max_wait)
        ),
    )
    m = sim.run(stream)
    print("\nmaster-queue partitions:")
    print(f"  {'partition':46s} {'queries':>7} {'batches':>7} "
          f"{'mean':>5} {'max':>4}")
    for p in m.qed.partitions:
        print(f"  {p.partition[:46]:46s} {p.queries:7d} {p.batches:7d} "
              f"{p.mean_batch_size:5.1f} {p.max_batch:4d}")
    print("\nfleet-wide batching concentrates work: the master queue "
          "merges across\nthe whole arrival stream, so batches are "
          "larger and always mergeable.")


if __name__ == "__main__":
    main()
