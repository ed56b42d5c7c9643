"""Time the perf pipelines and run the energy ablations, and write
``BENCH_perf.json``.

    PYTHONPATH=src python scripts/perf_report.py [sf] [out.json] \
        [--trace-cache DIR]
    PYTHONPATH=src python scripts/perf_report.py --check [sf out.json]

Runs every canonical scenario of ``repro.measurement.perf`` and
records each under its own key of the one artifact: the PVC sweep
(naive re-execution vs execute-once/replay-many) at the top level,
batched playback and the vectorized event core under
``cluster_scaling``, and the four energy ablations under ``diurnal``,
``qed``, ``faults`` and ``replication``.  What each section must
satisfy is the gate table, ``repro.measurement.gates``: the run ends by
printing every row against the record it just wrote, and exits 1 if
any fails.  ``--check`` prints and enforces the same rows on an
existing artifact without measuring anything (the CI workflow runs it
on the committed one).

The record is a deterministic-gate record with loose >= 5x floors, not
a host-time ledger: wall time is judged by ``benchmarks/e2e/compare.py``
over ten alternating ``run.py --out`` pairs, and nowhere else.

``--trace-cache DIR`` persists compiled traces across processes: a
second invocation pointed at the same directory skips the cluster
workload's database executions entirely.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.measurement import gates

DEFAULT_SF = 0.02
#: Same guard as benchmarks/conftest.py: sub-full-size runs must not
#: clobber the committed artifact.
ARTIFACT_MIN_SF = 0.05
COMMITTED_ARTIFACT = Path("BENCH_perf.json")


def check_gates(record: dict) -> int:
    """Print every row of the gate table against ``record``; 1 if any
    fails or is not recorded."""
    failing = 0
    for gate, value, passed in gates.verdicts(record):
        shown = "not recorded" if value is None else value
        print(f"{'ok  ' if passed else 'FAIL'} {gate.key} = {shown} "
              f"({gate.describe()})")
        failing += not passed
    print(f"{failing} recorded gate(s) failing" if failing
          else "all recorded gates pass")
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("sf", nargs="?", type=float, default=DEFAULT_SF)
    parser.add_argument("out", nargs="?", type=Path,
                        default=COMMITTED_ARTIFACT)
    parser.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="persist compiled traces across processes")
    parser.add_argument("--check", action="store_true",
                        help="validate the recorded artifact's gates "
                             "and exit (no measurement)")
    args = parser.parse_args(argv)
    if args.check:
        if not args.out.exists():
            print(f"error: artifact {args.out} not found")
            return 2
        return check_gates(json.loads(args.out.read_text()))

    from repro.db.profiles import mysql_profile
    from repro.hardware.profiles import paper_sut
    from repro.cluster import RoundRobinRouter
    from repro.measurement.perf import (
        cluster_scaling_scenario,
        compare_cluster_playback,
        compare_cluster_scheduling,
        compare_sweep_paths,
        run_diurnal_ablation,
        run_fault_ablation,
        run_qed_ablation,
        run_replication_ablation,
        scheduler_scaling_scenario,
    )
    from repro.workloads.runner import TraceCache
    from repro.workloads.selection import SelectionWorkload
    from repro.workloads.tpch.generator import tpch_database

    if args.out == COMMITTED_ARTIFACT and args.sf < ARTIFACT_MIN_SF:
        # Mirror the bench suite: smoke numbers never clobber the
        # committed record unless an output path is given explicitly.
        args.out = Path(tempfile.gettempdir()) / "BENCH_perf_smoke.json"
        print(f"SF {args.sf} < {ARTIFACT_MIN_SF}: writing to {args.out} "
              "(pass an explicit output path to override)")

    print(f"building lineitem database at SF {args.sf} ...")
    db = tpch_database(args.sf, mysql_profile(), seed=0,
                       tables=["lineitem"])
    trace_cache = (
        TraceCache.for_workload(args.trace_cache, "mysql", args.sf,
                                seed=0, tables=("lineitem",))
        if args.trace_cache else None
    )
    shared = {"scale_factor": args.sf, "trace_cache": trace_cache}

    def shown(result):
        result.table().print()
        return result

    workload = SelectionWorkload(tuple(range(1, 11)))
    sweep = shown(compare_sweep_paths(
        db, paper_sut(), workload.queries, repeats=5,
        scale_factor=args.sf,
    ))
    specs, router, stream = cluster_scaling_scenario()
    cluster = shown(compare_cluster_playback(
        db, specs, router, stream, **shared
    ))
    specs, _router, stream = scheduler_scaling_scenario()
    sched = shown(compare_cluster_scheduling(
        db, specs, RoundRobinRouter, stream, **shared
    ))
    ablations = [
        shown(run(db, **shared))
        for run in (run_diurnal_ablation, run_qed_ablation,
                    run_fault_ablation, run_replication_ablation)
    ]

    record = {
        **sweep.to_dict(),
        "cluster_scaling": {**cluster.to_dict(), **sched.to_record()},
        **{ablation.section: ablation.to_dict() for ablation in ablations},
    }
    args.out.write_text(json.dumps(record, indent=2))
    print(f"wrote {args.out}")

    print()
    return check_gates(record)


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
