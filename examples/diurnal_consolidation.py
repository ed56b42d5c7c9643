"""Diurnal load over a heterogeneous fleet: static vs dynamic policies.

A day of traffic, compressed: a sinusoidal rate schedule ramps a
nonhomogeneous Poisson arrival stream from a nighttime trough up
through a midday peak and back, served by a fleet mixing full-power
"big" nodes with underclocked, GPU-less "eco" nodes.  The scenario and
policies are the *canonical* ones from
:mod:`repro.measurement.ablations` -- the same configuration
``benchmarks/bench_ablation_diurnal.py`` gates and
``BENCH_perf.json``'s ``diurnal`` record tracks -- so these numbers
are directly comparable to the committed artifact.  Four policies face
the same stream:

* ``spread``       -- every node awake all day (the traditional
                      baseline; burns idle watts all night);
* ``consolidate``  -- the one-shot packer: wakes nodes for the peak
                      but never re-sleeps them afterwards;
* ``dynamic``      -- re-consolidation: an arrival-rate EWMA sizes the
                      awake set, drained nodes re-sleep when demand
                      drops, and the known rate schedule pre-wakes
                      capacity one wake latency ahead of the peak;
* ``adaptive_pvc`` -- every node awake but walking the PVC ladder on
                      its own backlog: cheap settings at night, stock
                      under the peak.

The paper's fleet-level claim -- energy tracks *load*, not
*provisioning* -- shows up in the phase report: dynamic's awake
node-seconds follow the rate curve.

    python examples/diurnal_consolidation.py [scale_factor]
"""

import sys

from repro.cluster import ClusterSimulator, DynamicConsolidateRouter
from repro.db.profiles import mysql_profile
from repro.measurement.ablations import (
    DIURNAL_REFERENCE_SF,
    DIURNAL_SLA_S,
    diurnal_policies,
    diurnal_scenario,
)
from repro.workloads.tpch.generator import tpch_database

WINDOW_S = 30.0


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01

    print(f"== diurnal re-consolidation (SF {scale_factor}) ==\n")
    db = tpch_database(scale_factor, mysql_profile(), seed=0,
                       tables=["lineitem"])
    specs, schedule, stream = diurnal_scenario(scale_factor)
    sla_s = DIURNAL_SLA_S * scale_factor / DIURNAL_REFERENCE_SF
    print(f"{len(stream)} arrivals over {schedule.horizon_s:.0f} s "
          f"(trough {schedule.rate_at(0.0):g}/s, "
          f"crest {schedule.peak_rate:g}/s)\n")

    print(f"{'policy':24s} {'energy J':>9} {'awake n·s':>9} "
          f"{'re-sleep':>8} {'p95 ms':>7} {'SLA miss':>8}")
    baseline_j = None
    dynamic = None
    for name, router in diurnal_policies(schedule, sla_s):
        m = ClusterSimulator(db, specs, router).run(stream)
        if baseline_j is None:
            baseline_j = m.wall_joules
        if isinstance(router, DynamicConsolidateRouter):
            dynamic = m
        saving = 1.0 - m.wall_joules / baseline_j
        print(f"{name:24s} {m.wall_joules:9.1f} {m.awake_node_s:9.1f} "
              f"{m.re_sleeps:8d} {m.p95_response_s * 1e3:7.1f} "
              f"{m.sla_violations(sla_s):8d}"
              + (f"   (saves {saving:.1%})" if saving > 1e-6 else ""))

    print(f"\ndynamic policy, phase by phase ({WINDOW_S:.0f} s windows):")
    print(f"  {'window':>14} {'arrivals':>8} {'modeled J':>10} "
          f"{'awake n·s':>9} {'re-sleep':>8}")
    for w in dynamic.window_report(WINDOW_S):
        print(f"  [{w.start_s:5.0f},{w.end_s:6.0f}) {w.arrivals:8d} "
              f"{w.modeled_joules:10.1f} {w.awake_node_s:9.1f} "
              f"{w.re_sleeps:8d}")
    print("\nawake capacity follows the rate curve: nodes sleep through "
          "the troughs\nand are pre-woken (wake-latency ahead) for each "
          "crest.")


if __name__ == "__main__":
    main()
