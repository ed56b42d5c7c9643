"""End-to-end benchmark: host time and memory, end to end and per layer.

    python benchmarks/e2e/run.py             # every workload and metric
    python benchmarks/e2e/run.py --workload fleet_featured --seed 3
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --out A.json       # append for compare.py
    python benchmarks/e2e/run.py --selfcheck        # same code, two sets
    python benchmarks/e2e/run.py --write-reference  # re-pin reference.json

The simulator consumes a pre-generated arrival stream in *simulated*
time; on the host it is a batch job, so this reports work completed per
host-second at a stated input size -- no open or closed loop, no rate
sweep.  One workload at a time, each in one fresh single-threaded
worker process (``worker.py``): set-up -> one warm-up rep -> timed reps
for ``--seconds`` (never fewer than the floor) -> the workload's
``python -m repro ...`` command cold, in fresh processes -> with
``--trace 1``, direct layer probes and one rep under ``cProfile``.
End-to-end metrics come from untraced reps only.

Metric names, units and bounds are read from ``BENCHMARK.json``; the
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

TIME_UNITS = {"s": 1.0, "ns": 1e9}
#: repetition floors (issue: R >= 5 reps, C >= 3 cold runs); ``--smoke``
#: runs everything once, with the second rep the counter check needs
FULL_PLAN = {"min_reps": 5, "max_reps": 12, "trace_reps": 3,
             "cold_runs": 3, "setup_samples": 3, "import_runs": 3}
SMOKE_PLAN = {"min_reps": 2, "max_reps": 2, "trace_reps": 2,
              "cold_runs": 1, "setup_samples": 1, "import_runs": 1}
WORKER_TIMEOUT_S = 170
SELFCHECK_ROUNDS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """One thread per process (``nproc`` is 2), ``repro`` importable."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{inherited}" if inherited else src
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env: dict) -> None:
    """Byte-compile ``src`` so no measured process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )


def run_worker(name: str, args, mode: str, min_reps: int, max_reps: int,
               seconds: float, workdir: Path, env: dict) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode,
        "--min-reps", str(min_reps), "--max-reps", str(max_reps),
        "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} worker ({mode}) exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def timed_process(argv: list[str], env: dict, sink_path: Path) -> dict:
    """Spawn -> exit wall and peak RSS (``os.wait4``) of one process."""
    with open(sink_path, "w") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sink,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "returncode": proc.returncode,
        "stdout": sink_path.read_text(),
    }


def clock_tick_s() -> float:
    """Mean gap between back-to-back clock reads, measured now."""
    rounds = 1000
    start = time.perf_counter()
    for _ in range(rounds):
        time.perf_counter()
    return (time.perf_counter() - start) / rounds


def run_workload(name: str, args, spec: dict, env: dict,
                 workdir: Path) -> dict:
    """Measure one workload; the result carries the contract's keys
    (``correct``/``attempted``/``failed``/``metrics``) plus detail."""
    plan = SMOKE_PLAN if args.smoke else FULL_PLAN
    end_to_end = args.trace != 1
    traced = args.trace != 0
    mode = "both" if end_to_end and traced else (
        "e2e" if end_to_end else "trace"
    )
    if end_to_end:
        reps, seconds = plan["min_reps"], args.seconds
    else:
        reps, seconds = plan["trace_reps"], args.seconds / 2
    main = run_worker(name, args, mode, reps, plan["max_reps"], seconds,
                      workdir, env)
    attempted, failed = main["attempted"], main["failed"]
    problems = list(main["problems"])
    ops = main["ops"]
    metrics: dict = {}
    samples: dict = {}

    if end_to_end:
        setups = [main["setup_s"]] + [
            run_worker(name, args, "setup", 0, 0, 0.0, workdir,
                       env)["setup_s"]
            for _ in range(plan["setup_samples"] - 1)
        ]
        wl = workloads.make(name, args.seed, args.smoke, workdir)
        colds = []
        for i in range(plan["cold_runs"]):
            cold = timed_process(
                [sys.executable, "-m", "repro"] + wl.cold_argv(),
                env, workdir / "cold_stdout.txt",
            )
            attempted += ops
            bad = workloads.mismatches(
                wl.cold_stats(cold["stdout"]),
                wl.cold_expected(main["stats"]),
            )
            if cold["returncode"] != 0 or bad:
                failed += ops
                problems.append(
                    f"cold run {i + 1}: exit {cold['returncode']}, "
                    f"mismatched {sorted(bad)}"
                )
            colds.append(cold)
        samples = {
            "setup_s": setups,
            "run_wall_s": main["run_wall_s"],
            "run_cpu_s": main["run_cpu_s"],
            "cold_wall_s": [c["wall_s"] for c in colds],
            "cold_peak_rss_mb": [c["rss_mb"] for c in colds],
        }
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["ops_per_s"] = ops / values["run_wall_s"]
        for declared in spec["end_to_end"]:
            metrics[declared["name"]] = {
                "value": values[declared["name"]],
                "unit": declared["unit"],
            }

    if traced:
        layers = main["layers"]
        layers["cli.import_s"] = statistics.median(
            timed_process(
                [sys.executable, "-c", "import repro.cli"], env,
                workdir / "import_stdout.txt",
            )["wall_s"]
            for _ in range(plan["import_runs"])
        )
        names = {d["name"] for d in spec["per_layer"]}
        undeclared = sorted(set(layers) - names)
        if undeclared:
            raise RuntimeError(
                f"{name}: layer metrics missing from BENCHMARK.json: "
                f"{undeclared}"
            )
        tick_s = clock_tick_s()
        for declared in spec["per_layer"]:
            value = layers.get(declared["name"], 0)
            scale = TIME_UNITS.get(declared["unit"])
            if scale is not None:
                # A layer the workload never enters reads as one clock
                # tick measured in this run, never as a literal 0: the
                # contract refuses times that read the same every run.
                value = max(value, tick_s * scale)
            metrics[declared["name"]] = {
                "value": value, "unit": declared["unit"],
            }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "samples": samples,
        "ops": ops,
        "pinned": main["pinned"],
        "stats": main["stats"],
    }
    if traced:
        result.update(
            counter_reps=main["counter_reps"], spans=main["spans"],
            profiled_wall_s=main["profiled_wall_s"],
            profiled_self_s=main["profiled_self_s"],
        )
    return result


def print_result(name: str, result: dict) -> None:
    checked = ("pinned to reference.json" if result["pinned"]
               else "reps agree with the first")
    print(f"\n== {name}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed (fail_share "
          f"{result['failed'] / result['attempted']:.3g}); {checked} ==")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    for metric, entry in result["metrics"].items():
        line = f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}"
        values = result["samples"].get(metric)
        if values:
            _, q1, q3 = compare.spread(values)
            line += f"   (median of {len(values)}; q1 {q1:.4g}, q3 {q3:.4g})"
        print(line)
    if "profiled_wall_s" in result:
        share = result["profiled_self_s"] / result["profiled_wall_s"]
        print(f"  profiled rep: {result['profiled_wall_s']:.3f} s wall, "
              f"self times cover {share:.1%} of it")


def run_set(args, spec: dict, env: dict, workdir: Path) -> dict:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args, spec, env, workdir)
        print_result(name, results[name])
    return results


def append_run(path: Path, args, results: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append({"seed": args.seed, "smoke": args.smoke,
                        "workloads": results})
    path.write_text(json.dumps(doc, indent=1))


def write_reference(args, env: dict, workdir: Path) -> int:
    """Pin every workload's simulated statistics at the default seed."""
    args.seed, args.smoke = workloads.DEFAULT_SEED, False
    pins = {
        name: run_worker(name, args, "e2e", 1, 1, 0.0, workdir,
                         env)["stats"]
        for name in workloads.WORKLOADS
    }
    featured = pins["fleet_featured"]
    idle = [kind for kind in ("crashes", "retries", "failed_wakes",
                              "re_replications") if featured[kind] < 1]
    if idle:
        print(f"error: fault plan leaves {idle} at 0 on fleet_featured",
              file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps({
        "seed": workloads.DEFAULT_SEED,
        "sizes": workloads.FULL_SIZES,
        "workloads": pins,
    }, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


def selfcheck(args, spec: dict, env: dict, workdir: Path) -> int:
    """Two sets of the same code must agree: every end-to-end metric
    within its bound, every count bit-identical, nothing failed.

    Each set is ``SELFCHECK_ROUNDS`` runs, the sets alternating so a
    slow minute on the host lands on both; the first run of each set
    also carries the per-layer metrics the counts come from.
    """
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for round_no in range(SELFCHECK_ROUNDS):
        for label, runs in sets.items():
            print(f"\n#### selfcheck set {label}, run {round_no + 1}")
            round_args = argparse.Namespace(**vars(args))
            if round_no:
                round_args.trace = 0
            runs.append({"seed": args.seed, "workloads":
                         run_set(round_args, spec, env, workdir)})
    verdicts = compare.compare_runs(sets["A"], sets["B"], spec)
    print()
    compare.print_verdicts(verdicts)
    failed = any(
        w["failed"] for runs in sets.values() for run in runs
        for w in run["workloads"].values()
    )
    bad = [v for v in verdicts if v["verdict"] in ("regressed", "differs")]
    return 1 if failed or bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="feeds the arrival streams and "
                             "fit.*_residuals(seed=)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-rep budget per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every stage once (test_smoke.py)")
    parser.add_argument("--out", type=Path,
                        help="append this run to a JSON file for compare.py")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    env = child_env()
    build(env)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.write_reference:
            return write_reference(args, env, workdir)
        if args.selfcheck:
            return selfcheck(args, spec, env, workdir)
        results = run_set(args, spec, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out is not None:
        append_run(args.out, args, results)
    contract = ("correct", "attempted", "failed", "metrics")
    if args.workload:
        print(json.dumps({k: results[args.workload][k] for k in contract}))
    else:
        print(json.dumps({
            name: {k: r[k] for k in contract}
            for name, r in results.items()
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
