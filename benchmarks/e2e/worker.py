"""One workload, measured in one fresh single-threaded process.

``run.py`` spawns this file once per workload:

    set-up (imports, TPC-H build, construction, one warm-up rep)
    -> timed reps, ``gc.collect()`` before each, profiler off
    -> (traced runs only) direct probes of single layers, then one extra
       rep under ``cProfile`` that attributes the time nested inside
       ``schedule()`` to packages without touching ``src/``

and reads the result as one JSON line on stdout.  Host time only: the
simulated statistics a rep returns are compared, never timed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import workloads

#: self-time buckets by source path under ``repro/``, first match wins
PACKAGE_BUCKETS = (
    ("db/sql/", "self.db.sql_s"),
    ("db/plan/", "self.db.plan_s"),
    ("db/exec/", "self.db.exec_s"),
    ("db/", "self.db.other_s"),
    ("core/qed/", "self.core.qed_s"),
    ("core/pvc/", "self.core.pvc_s"),
    ("hardware/", "self.hardware_s"),
    ("workloads/", "self.workloads_s"),
    ("cluster/simulator.py", "self.cluster.simulator_s"),
    ("cluster/routing.py", "self.cluster.routing_s"),
    ("cluster/node.py", "self.cluster.node_s"),
    ("cluster/master_queue.py", "self.cluster.master_queue_s"),
    ("cluster/placement.py", "self.cluster.placement_s"),
    ("cluster/faults.py", "self.cluster.faults_s"),
    ("cluster/playback.py", "self.cluster.playback_s"),
    ("cluster/measure.py", "self.cluster.measure_s"),
    ("obs/", "self.obs_s"),
)
SELF_METRICS = tuple(m for _, m in PACKAGE_BUCKETS) + (
    "self.numpy_s", "self.builtins_s", "self.other_s",
)
#: exact call counts: (source path under ``repro/``, function) -> metric
COUNTED_CALLS = {
    ("db/sql/parser.py", "parse"): "calls.db.sql.parse",
    ("db/engine.py", "execute"): "calls.db.execute",
    ("core/qed/aggregator.py", "merge_queries"):
        "calls.core.qed.merge_queries",
    ("hardware/system.py", "run_compiled"): "calls.hardware.run_compiled",
    ("hardware/system.py", "run_compiled_batch"):
        "calls.hardware.run_compiled_batch",
    ("cluster/routing.py", "route"): "calls.cluster.routing.route",
    ("cluster/routing.py", "route_chunk"):
        "calls.cluster.routing.route_chunk",
}
MERGE_PROBE_ROUNDS = 20


class Recorder:
    """In-memory host-time spans: ``[id, parent id, name, start, end]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [span_id, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def seconds(self, span_id: int) -> float:
        _, _, _, start, end = self.spans[span_id]
        return end - start

    def children(self, parent_id: int) -> dict[str, float]:
        """Stage name -> seconds for the direct children of one span."""
        return {
            name: end - start
            for _, parent, name, start, end in self.spans
            if parent == parent_id
        }


def timed_rep(wl, rec: Recorder) -> tuple[dict, dict, float, float]:
    """(simulated stats, stage seconds, wall s, cpu s) of one rep."""
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with rec.span("rep") as rep_id:
        stats = wl.rep(rec)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return stats, rec.children(rep_id), wall, cpu


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def direct_probes(wl, rec: Recorder) -> tuple[dict, dict]:
    """Single layers called directly on the workload's own statements.

    Returns (layer seconds, db/runner counters over the probe).
    """
    from repro.core.pvc.sweep import PvcSweep
    from repro.core.qed.aggregator import merge_queries
    from repro.core.qed.splitter import split_result
    from repro.hardware.cpu import STOCK_SETTING
    from repro.hardware.profiles import paper_sut, pvc_settings_grid
    from repro.workloads.runner import WorkloadRunner

    with rec.span("probes") as probes_id:
        db, statements, mergeable = wl.probe_inputs(rec)
        runner = WorkloadRunner(db, paper_sut())
        before = workloads.db_counters(db, runner)
        with rec.span("db.execute"):
            for sql in statements:
                db.execute(sql)
        with rec.span("workloads.runner.compile"):
            traces = [
                runner.cached_execution(sql, keep_result=False)
                .compiled_trace()
                for sql in statements
            ]
        with rec.span("hardware.run_compiled"):
            for setting in pvc_settings_grid(include_stock=True):
                runner.sut.apply_setting(setting)
                for trace in traces:
                    runner.sut.run_compiled(trace, db.workload_class)
        runner.sut.apply_setting(STOCK_SETTING)
        with rec.span("core.pvc.sweep"):
            PvcSweep(runner, statements).run()
        with rec.span("core.qed.merge"):
            for _ in range(MERGE_PROBE_ROUNDS):
                merged = merge_queries(mergeable)
        result = db.execute(merged.sql)
        with rec.span("core.qed.split"):
            for _ in range(MERGE_PROBE_ROUNDS):
                split_result(merged, result)
        counters = delta(workloads.db_counters(db, runner), before)
    spans = rec.children(probes_id)
    layers = {
        "db.execute_s": spans["db.execute"] / len(statements),
        "workloads.runner.compile_s": spans["workloads.runner.compile"],
        "hardware.run_compiled_s": spans["hardware.run_compiled"],
        "core.pvc.sweep_s": spans["core.pvc.sweep"],
        "core.qed.merge_s": spans["core.qed.merge"] / MERGE_PROBE_ROUNDS,
        "core.qed.split_s": spans["core.qed.split"] / MERGE_PROBE_ROUNDS,
    }
    if "workloads.tpch.build" in spans:
        layers["workloads.tpch.build_s"] = spans["workloads.tpch.build"]
    return layers, counters


def bucket_of(filename: str, under_repro: str | None, function: str) -> str:
    if filename == "~":  # C code has no source path
        return "self.numpy_s" if "numpy" in function else "self.builtins_s"
    if under_repro is not None:
        for prefix, metric in PACKAGE_BUCKETS:
            if under_repro.startswith(prefix):
                return metric
    elif "/numpy/" in filename:
        return "self.numpy_s"
    return "self.other_s"


def profiled_rep(wl, rec: Recorder) -> tuple[dict, dict, float]:
    """(simulated stats, self.* and calls.* metrics, wall s) of one rep
    under ``cProfile``."""
    profile = cProfile.Profile()
    gc.collect()
    wall0 = time.perf_counter()
    stats = profile.runcall(wl.rep, rec)
    wall = time.perf_counter() - wall0
    layers: dict = dict.fromkeys(SELF_METRICS, 0.0)
    layers.update(dict.fromkeys(COUNTED_CALLS.values(), 0))
    rows = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, function), row in rows.items():
        calls, self_s = row[1], row[2]
        _, found, tail = filename.replace("\\", "/").rpartition("/repro/")
        under_repro = tail if found else None
        layers[bucket_of(filename, under_repro, function)] += self_s
        counted = COUNTED_CALLS.get((under_repro, function))
        if counted is not None:
            layers[counted] += calls
    return stats, layers, wall


def reference_pins(wl, args) -> dict | None:
    """``reference.json``'s simulated statistics for this workload, when
    they apply: default seed, full size, sizes as they were pinned."""
    path = workloads.HERE / "reference.json"
    if args.smoke or args.seed != workloads.DEFAULT_SEED \
            or not path.exists():
        return None
    reference = json.loads(path.read_text())
    if reference["sizes"][wl.name] != workloads.FULL_SIZES[wl.name]:
        return None
    return reference["workloads"][wl.name]


def layer_metrics(wl, rec: Recorder, setup_id: int, warm_id: int,
                  stages: list[dict], counters: dict) -> dict:
    """Per-layer metrics except the profile's: stage medians over the
    timed reps, set-up stages, derived rates, direct probes, counters."""
    layers: dict = {
        f"{name}_s": statistics.median(s[name] for s in stages)
        for name in stages[0]
    }
    cold = {**rec.children(setup_id), **rec.children(warm_id)}
    for name, metric in (
        ("workloads.tpch.build", "workloads.tpch.build_s"),
        ("cluster.simulator.construct", "cluster.simulator.construct_s"),
        ("cluster.simulator.schedule", "cluster.simulator.schedule_cold_s"),
    ):
        if name in cold:
            layers[metric] = cold[name]
    layers.update(wl.derived_layers(layers, rec))
    if "obs.untraced_schedule_s" in layers:
        layers["obs.tracing_overhead_x"] = (
            layers["cluster.simulator.schedule_s"]
            / layers.pop("obs.untraced_schedule_s")
        )
    probe_layers, probe_counters = direct_probes(wl, rec)
    layers.update(probe_layers)
    layers.update(probe_counters)
    layers.update(counters)  # a fleet's own db/runner counts win
    return layers


def measure(args) -> dict:
    rec = Recorder()
    wl = workloads.make(args.workload, args.seed, args.smoke,
                        Path(args.workdir))
    with rec.span("setup") as setup_id:
        wl.setup(rec)
        with rec.span("rep") as warm_id:
            first = wl.rep(rec)
        oracle = wl.oracle_mismatches(rec)
    out: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        return out

    pins = reference_pins(wl, args)
    expected = first if pins is None else pins
    problems: list[str] = []
    attempted = failed = 0

    def check(stats: dict, label: str) -> None:
        nonlocal attempted, failed
        attempted += wl.ops
        bad = workloads.mismatches(stats, expected)
        if bad:
            problems.append(
                f"{label}: simulated statistics moved: {sorted(bad)}"
            )
            failed += wl.ops
        else:
            lost = wl.failed_ops(stats)
            if lost:
                problems.append(f"{label}: {lost} ops failed their check")
            failed += lost

    check(first, "warm-up rep")
    walls: list[float] = []
    cpus: list[float] = []
    stages: list[dict] = []
    counter_reps: list[dict] = []
    budget_end = time.perf_counter() + args.seconds
    while len(walls) < args.min_reps or (
        time.perf_counter() < budget_end and len(walls) < args.max_reps
    ):
        before = wl.host_counters()
        stats, spans, wall, cpu = timed_rep(wl, rec)
        check(stats, f"rep {len(walls) + 1}")
        walls.append(wall)
        cpus.append(cpu)
        stages.append(spans)
        counter_reps.append({
            **wl.counters(stats), **delta(wl.host_counters(), before),
        })
    out.update(ops=wl.ops, run_wall_s=walls, run_cpu_s=cpus, stats=first,
               pinned=pins is not None)

    if args.mode in ("trace", "both"):
        layers = layer_metrics(wl, rec, setup_id, warm_id, stages,
                               counter_reps[-1])
        stats, profile_layers, profiled_wall = profiled_rep(wl, rec)
        check(stats, "profiled rep")
        layers.update(profile_layers)
        layers["trace.overhead_x"] = profiled_wall / statistics.median(walls)
        out.update(
            layers=layers, counter_reps=counter_reps,
            profiled_wall_s=profiled_wall,
            profiled_self_s=sum(profile_layers[m] for m in SELF_METRICS),
            spans=rec.spans,
        )
    if any(c != counter_reps[0] for c in counter_reps):
        problems.append("counters did not repeat exactly across reps")
        failed = attempted
    if oracle:
        problems.append(
            f"vectorized path and loop oracle disagree on {oracle[:8]}"
        )
        failed = attempted
    out.update(attempted=attempted, failed=failed, problems=problems)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "e2e", "trace", "both"))
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--max-reps", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
