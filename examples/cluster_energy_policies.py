"""Cluster energy policies: spread vs consolidate vs power-capped.

Two tenants' Poisson arrival streams merge into one cluster workload
(time-ordered, stable for ties) and are served by a small fleet under
three routing policies:

* ``spread``       -- round-robin, every node awake (the traditional
                      load balancer);
* ``consolidate``  -- pack onto as few nodes as possible, sleep the
                      rest, wake on demand (paying the wake latency);
* ``power cap``    -- keep the fleet's modeled wall power under a cap,
                      delaying queries into headroom.

The energy/latency tension the paper frames for a single machine shows
up fleet-wide: consolidate cuts energy sharply at a response-time cost,
the cap bounds peak power at a (smaller) latency cost.

    python examples/cluster_energy_policies.py [scale_factor]
"""

import sys

from repro.cluster import (
    ClusterSimulator,
    ConsolidateRouter,
    PowerCapRouter,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.db.profiles import mysql_profile
from repro.workloads.arrivals import merge_arrivals, poisson_arrivals
from repro.workloads.selection import selection_workload
from repro.workloads.tpch.generator import tpch_database

NODES = 4
PER_TENANT = 60
MEAN_INTERARRIVAL_S = 0.08
SLA_S = 0.5


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01

    print(f"== cluster energy policies (SF {scale_factor}, "
          f"{NODES} nodes) ==\n")
    db = tpch_database(scale_factor, mysql_profile(), seed=0,
                       tables=["lineitem"])

    # Two tenants with disjoint selection predicates, one merged stream.
    tenant_a = selection_workload(15, start=1).queries
    tenant_b = selection_workload(15, start=21).queries
    stream = merge_arrivals(
        poisson_arrivals(
            [tenant_a[i % 15] for i in range(PER_TENANT)],
            MEAN_INTERARRIVAL_S, seed=1,
        ),
        poisson_arrivals(
            [tenant_b[i % 15] for i in range(PER_TENANT)],
            MEAN_INTERARRIVAL_S, seed=2,
        ),
    )
    print(f"{2 * PER_TENANT} arrivals from 2 tenants over "
          f"{stream.times[-1]:.1f} s\n")

    policies = [
        ("spread (round-robin)", RoundRobinRouter(), {}),
        ("consolidate + sleep",
         ConsolidateRouter(max_backlog_s=0.75),
         dict(wake_latency_s=5.0)),
        ("power cap 460 W", PowerCapRouter(cap_w=460.0), {}),
    ]

    print(f"{'policy':22s} {'energy J':>9} {'EDP':>10} {'awake':>5} "
          f"{'peak W':>7} {'p95 ms':>7} {'SLA miss':>8}")
    baseline_j = None
    for name, router, fleet_kwargs in policies:
        sim = ClusterSimulator(
            db, uniform_fleet(NODES, **fleet_kwargs), router
        )
        m = sim.run(stream)
        if baseline_j is None:
            baseline_j = m.wall_joules
        saving = 1.0 - m.wall_joules / baseline_j
        print(f"{name:22s} {m.wall_joules:9.1f} {m.edp:10.1f} "
              f"{m.awake_nodes:3d}/{NODES} {m.peak_power_w:7.1f} "
              f"{m.p95_response_s * 1e3:7.1f} "
              f"{m.sla_violations(SLA_S):8d}"
              + (f"   (saves {saving:.1%})" if saving > 1e-6 else ""))

    print("\nconsolidate trades response time for energy; the cap "
          "trades a little latency for bounded peak power.")


if __name__ == "__main__":
    main()
