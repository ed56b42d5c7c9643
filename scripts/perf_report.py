"""Run the canonical cluster scenarios and write ``BENCH_perf.json``.

    PYTHONPATH=src python scripts/perf_report.py [sf] [out.json] \
        [--trace-cache DIR] [--against RECORD]
    PYTHONPATH=src python scripts/perf_report.py --check [sf out.json] \
        [--against RECORD]

Runs every canonical scenario of ``repro.measurement.ablations`` and
records each under its own key of the one artifact: the vectorized
event core against the per-arrival loop under ``cluster_scaling``, and
the four energy ablations under ``diurnal``, ``qed``, ``faults`` and
``replication``.  What each section must satisfy is the gate table,
``repro.measurement.gates``: the run ends by printing every row against
the record it just wrote, and exits 1 if any fails.  ``--check`` prints
and enforces the same rows on an existing artifact without running
anything (the CI workflow runs it on the committed one).

``--against RECORD`` then compares the record with another one, key by
key: every run id, count and flag exactly, every float to 1e-9
(relative or absolute), and exits 1 listing each key that moved.  CI
regenerates the record at SF 0.05 against the committed
``BENCH_perf.json`` this way.  The tolerance absorbs the last-bit drift
a different numpy, BLAS build or CPU kernel can leave in a sum or a dot
product; a change in simulated behaviour moves values far more.

Every value in the record is simulated, so a re-run reproduces it bit
for bit; wall time is judged by ``benchmarks/e2e/compare.py`` over ten
alternating ``run.py --out`` pairs, and nowhere else.

``--trace-cache DIR`` persists compiled traces across processes: a
second invocation pointed at the same directory skips the cluster
workload's database executions entirely.
"""

from __future__ import annotations

import argparse
import json
import math
import tempfile
from pathlib import Path

from repro.measurement import gates

DEFAULT_SF = 0.02
#: Same guard as benchmarks/conftest.py: sub-full-size runs must not
#: clobber the committed artifact.
ARTIFACT_MIN_SF = 0.05
COMMITTED_ARTIFACT = Path("BENCH_perf.json")
#: How far a float may sit from the record it is compared against.
DRIFT_TOL = 1e-9


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


def drifted(got, want, path: str = "") -> list[str]:
    """Keys where ``got`` differs from ``want``: a float by more than
    :data:`DRIFT_TOL`, anything else at all (a missing key included)."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [
            moved for key in sorted(set(got) | set(want))
            for moved in drifted(got.get(key), want.get(key),
                                 f"{path}.{key}" if path else key)
        ]
    if (isinstance(got, list) and isinstance(want, list)
            and len(got) == len(want)):
        return [
            moved for i, pair in enumerate(zip(got, want))
            for moved in drifted(*pair, f"{path}[{i}]")
        ]
    if isinstance(got, float) and isinstance(want, float):
        close = math.isclose(got, want, rel_tol=DRIFT_TOL,
                             abs_tol=DRIFT_TOL)
        return [] if close else [path]
    return [] if got == want else [path]


def check_against(record: dict, path: Path) -> int:
    """Print every key of ``record`` that moved from the record at
    ``path``; 1 if any did."""
    moved = drifted(record, json.loads(path.read_text()))
    for key in moved:
        print(f"MOVED {key}")
    print(f"{len(moved)} value(s) moved from {path}" if moved
          else f"every value matches {path}")
    return 1 if moved else 0


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
    parser.add_argument("--against", type=Path, default=None,
                        metavar="RECORD",
                        help="then compare the record with RECORD: "
                             "floats to 1e-9, all else exactly")
    args = parser.parse_args(argv)

    def verdict(record: dict) -> int:
        failed = check_gates(record)
        if args.against is not None:
            print()
            failed |= check_against(record, args.against)
        return failed

    if args.check:
        if not args.out.exists():
            print(f"error: artifact {args.out} not found")
            return 2
        return verdict(json.loads(args.out.read_text()))

    from repro.db.profiles import mysql_profile
    from repro.cluster import RoundRobinRouter
    from repro.measurement.ablations import (
        compare_cluster_scheduling,
        run_diurnal_ablation,
        run_fault_ablation,
        run_qed_ablation,
        run_replication_ablation,
        scheduler_scaling_scenario,
    )
    from repro.workloads.runner import TraceCache
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
        "cluster_scaling": sched.to_record(),
        **{ablation.section: ablation.to_dict() for ablation in ablations},
    }
    args.out.write_text(json.dumps(record, indent=2))
    print(f"wrote {args.out}")

    print()
    return verdict(record)


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
