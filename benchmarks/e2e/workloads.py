"""The benchmark's four workloads: sizes, construction, stage chains, checks.

Each workload mirrors one ``python -m repro ...`` command flag for flag,
so an in-process rep and a cold subprocess run of :meth:`cold_argv`
build the same configuration (fleet workloads: the same run id).  The
harness owns these definitions -- nothing here imports scenario helpers
from ``repro.measurement.perf`` -- and every ``repro`` import is lazy,
so a worker's import cost lands inside its measured set-up.

A rep wraps each call into a layer's public function in a
``rec.span(<layer>)`` (host time, in memory) and returns the run's
*simulated* statistics, which :func:`mismatches` holds to <=1e-9 against
``reference.json`` (default seed) or the worker's first rep (any other
seed): a speed-up must leave every simulated number where it was.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAULT_PLAN = HERE / "inputs" / "fault_plan.json"

DEFAULT_SEED = 0
WINDOW_S = 30.0
SLA_S = 7.5
WAKE_LATENCY_S = 30.0
REL_TOLERANCE = 1e-9
#: arrivals the ``fleet_vectorized`` set-up sends through both engines
ORACLE_ARRIVALS = 20_000

#: Sized so one warm rep is 1.3-4 s here: the contract's run budget
#: (92 runs in 3420 s, each with three set-ups, >=5 reps and three
#: cold runs) leaves ~27 s per run.  ``paper_figures`` sits at the
#: smallest scale factor that keeps every residual clear of its
#: tolerance on every seed tried (the QED response ratios drift out
#: below SF 0.035); the fault plan in ``inputs/`` is laid out for
#: ``fleet_featured``'s ~800 s simulated horizon.
FULL_SIZES: dict[str, dict] = {
    "paper_figures": {"sf": 0.035},
    "fleet_vectorized": {"sf": 0.05, "nodes": 100, "arrivals": 400_000,
                         "distinct": 50, "interarrival": 0.01},
    "fleet_featured": {"sf": 0.05, "nodes": 16, "arrivals": 8_000,
                       "distinct": 20, "interarrival": 0.1},
    "fleet_traced": {"sf": 0.05, "nodes": 100, "arrivals": 10_000,
                     "distinct": 50, "interarrival": 0.01},
}
#: ``--smoke``: every stage runs, nothing is sized to be measured (and
#: ``paper_figures`` is below the scale its tolerances are calibrated
#: for).  ``fleet_featured`` stretches its interarrival so the short
#: stream still spans the fault plan's horizon.
SMOKE_SIZES: dict[str, dict] = {
    "paper_figures": {"sf": 0.005},
    "fleet_vectorized": {"sf": 0.01, "nodes": 100, "arrivals": 2_000,
                         "distinct": 50, "interarrival": 0.01},
    "fleet_featured": {"sf": 0.01, "nodes": 16, "arrivals": 1_000,
                       "distinct": 20, "interarrival": 0.8},
    "fleet_traced": {"sf": 0.01, "nodes": 100, "arrivals": 1_000,
                     "distinct": 50, "interarrival": 0.01},
}
WORKLOADS = tuple(FULL_SIZES)


def db_counters(db, runner) -> dict:
    """Exact cache/execution counts, read from public attributes."""
    return {
        "db.executions": db.executions,
        "db.plan_cache_hits": db.plan_cache_hits,
        "db.plan_cache_misses": db.plan_cache_misses,
        "workloads.runner.exec_cache_hits": runner.execution_cache_hits,
        "workloads.runner.exec_cache_misses": runner.execution_cache_misses,
    }


class PaperFigures:
    """Mirror of ``cmd_experiments``: every paper data point, with the
    tolerance its ``cmd_*`` applies.  One op = one data point."""

    name = "paper_figures"

    def __init__(self, size: dict, seed: int):
        self.sf = size["sf"]
        self.seed = seed
        self.ops = 0  # known after the first rep

    def setup(self, rec) -> None:
        with rec.span("setup.import"):
            from repro.calibration import fit, targets
        self.fit, self.targets = fit, targets

    def rep(self, rec) -> dict:
        fit, t = self.fit, self.targets
        groups = []
        groups.append((fit.table1_residuals(), "abs_error",
                       t.TABLE1_WATTS_TOLERANCE))
        for profile in ("commercial", "mysql"):
            with rec.span(f"calibration.fit.pvc_{profile}"):
                groups.append((
                    fit.pvc_residuals(profile, self.sf, seed=self.seed),
                    "abs_error", t.PVC_RATIO_TOLERANCE,
                ))
        groups.append((fit.fig5_residuals(), "rel_error",
                       t.FIG5_IMPROVEMENT_REL_TOLERANCE))
        with rec.span("calibration.fit.warm_cold"):
            groups.append((
                fit.warm_cold_residuals(self.sf, seed=self.seed),
                "rel_error", t.WARMCOLD_REL_TOLERANCE,
            ))
        with rec.span("calibration.fit.qed"):
            groups.append((
                fit.qed_residuals(self.sf, seed=self.seed,
                                  batch_sizes=tuple(t.QED_BATCH_SIZES)),
                "abs_error", t.QED_RATIO_TOLERANCE,
            ))
        stats: dict = {}
        beyond = 0
        for residuals, error, tolerance in groups:
            for r in residuals:
                stats[r.label] = r.measured
                beyond += getattr(r, error) > tolerance
        self.ops = len(stats)
        stats["beyond_tolerance"] = beyond
        return stats

    def oracle_mismatches(self, rec) -> list[str]:
        return []

    def failed_ops(self, stats: dict) -> int:
        return int(stats["beyond_tolerance"])

    def counters(self, stats: dict) -> dict:
        return {}

    def host_counters(self) -> dict:
        """``fit.*`` keeps its databases private; the direct probes
        supply this workload's db/runner counts instead."""
        return {}

    def derived_layers(self, layers: dict, rec) -> dict:
        return {}

    def probe_inputs(self, rec):
        """(database, statements, mergeable batch) for the direct
        probes: the Q5 paper workload on the commercial engine, as
        ``pvc_residuals`` builds it."""
        from repro.db.profiles import commercial_profile
        from repro.workloads.selection import selection_workload
        from repro.workloads.tpch.generator import tpch_database
        from repro.workloads.tpch.queries import Q5_TABLES, q5_paper_workload

        with rec.span("workloads.tpch.build"):
            db = tpch_database(self.sf, commercial_profile(self.sf),
                               seed=self.seed, tables=Q5_TABLES)
            db.warm()
        return db, q5_paper_workload(), selection_workload(50).queries

    def cold_argv(self) -> list[str]:
        return ["experiments", "--sf", str(self.sf)]

    def cold_stats(self, stdout: str) -> dict:
        return {"within_tolerance":
                "all experiments within tolerance" in stdout}

    def cold_expected(self, stats: dict) -> dict:
        return {"within_tolerance": True}


class Fleet:
    """One ``python -m repro cluster`` configuration.

    rep = generate arrivals -> ``schedule`` -> ``playback`` ->
    p50/p95/p99 + ``sla_violations`` -> ``window_report`` ->
    ``summary``, plus the workload's extras.  One op = one arrival.
    """

    def __init__(self, name: str, size: dict, seed: int, workdir: Path):
        self.name = name
        self.size = size
        self.seed = seed
        self.ops = size["arrivals"]
        self.workdir = workdir
        self.featured = name == "fleet_featured"
        self.traced = name == "fleet_traced"

    # -- construction: what cmd_cluster builds from cold_argv() ----------

    def setup(self, rec) -> None:
        with rec.span("setup.import"):
            import repro.cluster  # noqa: F401
            import repro.obs  # noqa: F401
            from repro.db.profiles import mysql_profile
            from repro.workloads.selection import selection_workload
            from repro.workloads.tpch.generator import tpch_database
        with rec.span("workloads.tpch.build"):
            self.db = tpch_database(self.size["sf"], mysql_profile(),
                                    seed=0, tables=["lineitem"])
        self.queries = selection_workload(self.size["distinct"]).queries
        with rec.span("cluster.simulator.construct"):
            self.sim = self._construct(observed=self.traced)
            #: the untraced twin ``obs.tracing_overhead_x`` divides by
            self.plain = (
                self._construct(observed=False) if self.traced else None
            )

    def _construct(self, observed: bool):
        from repro import cluster as c
        from repro.core.qed.policy import BatchPolicy
        from repro.obs import MetricsRegistry, SpanTracer

        specs = c.uniform_fleet(self.size["nodes"],
                                wake_latency_s=WAKE_LATENCY_S,
                                queue_policy=None)
        kwargs: dict = {}
        if self.featured:
            router = c.DynamicConsolidateRouter(
                max_backlog_s=1.0, target_utilization=0.7,
                hysteresis=0.3, min_awake=1, schedule=None,
            )
            kwargs = {
                "master_queue": c.MasterQueue(
                    BatchPolicy(16, max_wait_s=2.0),
                    placement=c.ConsolidatePlacement(),
                ),
                "faults": c.load_fault_plan(str(FAULT_PLAN)),
                "retry": c.RetryPolicy(max_attempts=4, backoff_s=0.25),
                "placement": c.generate_placement(
                    specs, shards=4, replicas=2, quorum=1
                ),
            }
        else:
            router = c.RoundRobinRouter()
        if observed:
            kwargs["tracer"] = SpanTracer()
            kwargs["metrics"] = MetricsRegistry(window_s=WINDOW_S)
        return c.ClusterSimulator(self.db, specs, router, **kwargs)

    def cold_argv(self) -> list[str]:
        s = self.size
        argv = [
            "cluster", "--sf", str(s["sf"]), "--nodes", str(s["nodes"]),
            "--arrivals", str(s["arrivals"]),
            "--distinct", str(s["distinct"]),
            "--mean-interarrival", str(s["interarrival"]),
            "--seed", str(self.seed), "--window", f"{WINDOW_S:g}",
            "--sla", str(SLA_S),
        ]
        if self.featured:
            argv += [
                "--policy", "dynamic", "--qed", "master",
                "--qed-threshold", "16", "--qed-max-wait", "2.0",
                "--qed-placement", "consolidate",
                "--faults", str(FAULT_PLAN),
                "--retry-max", "4", "--retry-backoff", "0.25",
                "--shards", "4", "--replicas", "2",
            ]
        else:
            argv += ["--policy", "spread"]
        if self.traced:
            argv += ["--trace", str(self.workdir / "cold_trace.json"),
                     "--metrics", str(self.workdir / "cold_metrics.json")]
        return argv

    # -- the stage chain ----------------------------------------------------

    def stream(self):
        from repro.workloads.arrivals import poisson_arrivals

        n = self.size["arrivals"]
        cycled = [self.queries[i % len(self.queries)] for i in range(n)]
        return poisson_arrivals(cycled, self.size["interarrival"],
                                seed=self.seed)

    def rep(self, rec) -> dict:
        with rec.span("workloads.arrivals.generate"):
            stream = self.stream()
        with rec.span("cluster.simulator.schedule"):
            schedule = self.sim.schedule(stream)
        with rec.span("cluster.playback.play"):
            m = self.sim.playback(schedule)
        with rec.span("cluster.measure.percentiles"):
            p50, p95, p99 = (m.p50_response_s, m.p95_response_s,
                             m.p99_response_s)
            sla_misses = m.sla_violations(SLA_S)
        with rec.span("cluster.measure.window_report"):
            windows = m.window_report(WINDOW_S)
        with rec.span("cluster.measure.summary"):
            summary = m.summary()
        stats = {
            "run_id": m.run_id,
            "arrivals": len(stream),
            "served": m.served,
            "shed": len(m.shed),
            "horizon_s": m.horizon_s,
            "wall_joules": m.wall_joules,
            "cpu_joules": m.cpu_joules,
            "p50_response_s": p50,
            "p95_response_s": p95,
            "p99_response_s": p99,
            "sla_misses": sla_misses,
            "windows": len(windows),
            "scheduled_pieces": schedule.scheduled_pieces,
            "re_sleeps": m.re_sleeps,
            "edp": summary["edp"],
        }
        if m.qed is not None:
            stats["qed_batches"] = m.qed.batches
            stats["qed_mean_batch_size"] = m.qed.mean_batch_size
        if m.faults is not None:
            f = m.faults
            stats.update(
                crashes=f.crashes, failed_wakes=f.failed_wakes,
                retries=f.retries, dead_lettered=f.dead_lettered,
                re_replications=f.re_replications,
            )
        if self.traced:
            stats.update(self._observability(rec, stream, m))
        return stats

    def _observability(self, rec, stream, m) -> dict:
        """``fleet_traced`` extras: every exporter, the reload path, and
        one untraced loop schedule of the same stream."""
        from repro import obs

        tracer, registry = self.sim.tracer, self.sim.metrics
        chrome = str(self.workdir / "trace.json")
        with rec.span("obs.export.chrome"):
            obs.write_trace(chrome, tracer, measurement=m)
        with rec.span("obs.export.jsonl"):
            obs.export_jsonl(str(self.workdir / "trace.jsonl"), tracer, m)
        with rec.span("obs.export.metrics"):
            obs.write_metrics(str(self.workdir / "metrics.json"), registry)
        with rec.span("obs.report.attribution"):
            attribution = obs.energy_attribution(m)
        with rec.span("obs.export.load_validate"):
            meta, spans = obs.load_trace(chrome)
            errors = obs.validate_trace(meta, spans)
            obs.span_stats(spans)
        with rec.span("obs.untraced_schedule"):
            self.plain.schedule(stream, vectorized=False)
        return {
            "spans": len(tracer.spans),
            "terminals": len(tracer.terminal_spans()),
            "trace_bytes": os.path.getsize(chrome),
            "trace_errors": len(errors),
            "reconciled":
                attribution["reconciliation_rel"] <= REL_TOLERANCE,
        }

    # -- checks ---------------------------------------------------------------

    def oracle_mismatches(self, rec) -> list[str]:
        """``fleet_vectorized`` only: the stream's head through the
        vectorized path and the per-arrival oracle must agree per node
        to <=1e-9, or the workload fails."""
        if self.featured or self.traced:
            return []
        head = self.stream()[:ORACLE_ARRIVALS]
        with rec.span("cluster.simulator.oracle_check"):
            per_node = []
            for vectorized in (True, False):
                m = self.sim.playback(
                    self.sim.schedule(head, vectorized=vectorized)
                )
                per_node.append({
                    f"{n.name}.{key}": value
                    for n in m.nodes
                    for key, value in (
                        ("queries", n.queries),
                        ("wall_joules", n.wall_joules),
                        ("cpu_joules", n.playback.cpu_joules),
                        ("duration_s", n.playback.duration_s),
                    )
                })
        return mismatches(*per_node)

    def failed_ops(self, stats: dict) -> int:
        """Conservation: every arrival gets exactly one terminal."""
        ok = (
            stats["arrivals"] == self.ops
            and stats["served"] + stats["shed"] == self.ops
        )
        if self.traced:
            ok = (
                ok and stats["terminals"] == self.ops
                and stats["trace_errors"] == 0
                and stats["reconciled"]
            )
        return 0 if ok else self.ops

    def counters(self, stats: dict) -> dict:
        """Exact per-rep counts, read from public attributes."""
        return {
            "cluster.measure.qed_batches": stats.get("qed_batches", 0),
            "cluster.measure.qed_mean_batch_size":
                stats.get("qed_mean_batch_size", 0.0),
            "cluster.faults.crashes": stats.get("crashes", 0),
            "cluster.faults.retries": stats.get("retries", 0),
            "cluster.faults.re_replications":
                stats.get("re_replications", 0),
            "cluster.node.re_sleeps": stats["re_sleeps"],
            "cluster.measure.windows": stats["windows"],
            "cluster.simulator.scheduled_pieces":
                stats["scheduled_pieces"],
            "obs.tracer.spans": stats.get("spans", 0),
            "obs.export.trace_bytes": stats.get("trace_bytes", 0),
        }

    def host_counters(self) -> dict:
        return db_counters(self.db, self.sim.runner)

    def derived_layers(self, layers: dict, rec) -> dict:
        """Per-arrival costs, the engine taken, and
        ``config_fingerprint`` called directly with the run's arguments
        (the arrivals digest is its cost)."""
        from repro.obs import config_fingerprint

        sim, stream = self.sim, self.stream()
        with rec.span("obs.fingerprint.digest") as span_id:
            config_fingerprint(
                [node.spec for node in sim.nodes], sim.router,
                master_queue=sim.master_queue, faults=sim.faults,
                retry=sim.retry, arrivals=stream,
                workload_class=sim.db.workload_class,
                scale_factor=sim.db.scale_factor, placement=sim.placement,
            )
        per_arrival = 1e9 / self.ops
        return {
            "workloads.arrivals.ns_per_arrival":
                layers["workloads.arrivals.generate_s"] * per_arrival,
            "cluster.simulator.schedule_ns_per_arrival":
                layers["cluster.simulator.schedule_s"] * per_arrival,
            "cluster.simulator.vectorized":
                int(sim.vectorized_ineligibility() is None),
            "obs.fingerprint.digest_s": rec.seconds(span_id),
        }

    def probe_inputs(self, rec):
        return self.db, self.queries, self.queries

    def cold_stats(self, stdout: str) -> dict:
        """``run id`` / ``served`` / ``shed`` as cmd_cluster prints them."""
        run_id = re.search(r"run id\s*:\s*(\w+)", stdout)
        served = re.search(r"served (\d+), shed (\d+)", stdout)
        return {
            "run_id": run_id.group(1) if run_id else None,
            "served": int(served.group(1)) if served else None,
            "shed": int(served.group(2)) if served else None,
        }

    def cold_expected(self, stats: dict) -> dict:
        return {k: stats[k] for k in ("run_id", "served", "shed")}


def make(name: str, seed: int, smoke: bool, workdir: Path):
    size = (SMOKE_SIZES if smoke else FULL_SIZES)[name]
    if name == "paper_figures":
        return PaperFigures(size, seed)
    return Fleet(name, size, seed, workdir)


def mismatches(stats: dict, expected: dict) -> list[str]:
    """Keys of ``expected`` that ``stats`` misses by more than 1e-9
    relative (exactly, for anything that is not a float)."""
    bad = []
    for key, want in expected.items():
        got = stats.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            if abs(got - want) > REL_TOLERANCE * max(abs(want), 1e-300):
                bad.append(key)
        elif got != want:
            bad.append(key)
    return bad
