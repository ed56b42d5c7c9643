"""Command-line interface: regenerate the paper's experiments.

    python -m repro table1
    python -m repro pvc --profile commercial --sf 0.05
    python -m repro qed --sf 0.05 --batches 35 40 45 50
    python -m repro disk
    python -m repro warmcold --sf 0.05
    python -m repro cluster --nodes 8 --arrivals 500 --policy consolidate
    python -m repro cluster --profile diurnal --policy dynamic \
        --fleet examples/hetero_fleet.json --window 30
    python -m repro cluster --qed master --qed-threshold 20 \
        --qed-max-wait 0.3 --qed-placement hash
    python -m repro cluster --policy dynamic --sla 1.0 \
        --faults examples/fault_plan.json --retry-max 4
    python -m repro cluster --policy least --shards 8 --replicas 2 \
        --quorum majority --faults examples/fault_plan.json
    python -m repro cluster --placement examples/placement.json \
        --policy dynamic
    python -m repro lint                       # invariant linter
    python -m repro experiments --sf 0.02      # everything, compact

Each reproduction command prints a paper-vs-measured table (see
:mod:`repro.measurement.report`) and exits non-zero if any check fails
its documented tolerance.  ``cluster`` simulates serving an arrival
stream across a fleet of simulated servers with batched compiled-trace
playback (exits non-zero if a power-capped run overshoots its cap).
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.calibration import fit, targets
from repro.measurement.report import ComparisonTable


def _report(title: str, residuals, error: str, tolerance: float) -> int:
    """Print one experiment's paper-vs-measured table and name every
    row whose ``error`` (``abs_error`` / ``rel_error``) exceeds
    ``tolerance``; 1 if any does."""
    table = ComparisonTable(title)
    for r in residuals:
        table.add(r.label, r.paper, r.measured)
    table.print()
    bad = [r for r in residuals if getattr(r, error) > tolerance]
    for r in bad:
        print(f"OUT OF TOLERANCE: {r.label} "
              f"(paper {r.paper:.3f}, measured {r.measured:.3f})")
    return 1 if bad else 0


def cmd_table1(_args) -> int:
    return _report(
        "Table 1: system power breakdown (wall W)",
        fit.table1_residuals(),
        "abs_error", targets.TABLE1_WATTS_TOLERANCE,
    )


def cmd_pvc(args) -> int:
    return _report(
        f"PVC sweep: {args.profile} profile (ratios vs stock)",
        fit.pvc_residuals(args.profile, args.sf),
        "abs_error", targets.PVC_RATIO_TOLERANCE,
    )


def cmd_qed(args) -> int:
    return _report(
        "QED vs sequential (Figure 6 ratios)",
        fit.qed_residuals(args.sf, batch_sizes=tuple(args.batches)),
        "abs_error", targets.QED_RATIO_TOLERANCE,
    )


def cmd_disk(_args) -> int:
    return _report(
        "Figure 5: random-read improvement factors",
        fit.fig5_residuals(),
        "rel_error", targets.FIG5_IMPROVEMENT_REL_TOLERANCE,
    )


def cmd_warmcold(args) -> int:
    return _report(
        "Section 3.5: warm vs cold (SF-1.0 magnitudes)",
        fit.warm_cold_residuals(args.sf),
        "rel_error", targets.WARMCOLD_REL_TOLERANCE,
    )


def _build_stream(args, queries: list[str]):
    """(arrivals, schedule-or-None) for the chosen load profile."""
    from repro.workloads.arrivals import (
        bursty_arrivals,
        diurnal_schedule,
        poisson_arrivals,
        ramp_schedule,
        rate_schedule_arrivals,
        uniform_arrivals,
    )

    cycled = [queries[i % len(queries)] for i in range(args.arrivals)]
    if args.profile == "poisson":
        return poisson_arrivals(
            cycled, args.mean_interarrival, seed=args.seed
        ), None
    if args.profile == "uniform":
        return uniform_arrivals(cycled, args.mean_interarrival), None
    if args.profile == "bursty":
        return bursty_arrivals(
            cycled, burst_size=max(1, args.arrivals // 10),
            burst_gap_s=args.mean_interarrival * 20,
        ), None
    if args.profile == "diurnal":
        schedule = diurnal_schedule(
            args.base_rate, args.peak_rate, args.period, args.horizon
        )
    else:  # ramp
        schedule = ramp_schedule(args.base_rate, args.peak_rate,
                                 args.horizon)
    return rate_schedule_arrivals(queries, schedule, seed=args.seed), schedule


def cmd_cluster(args) -> int:
    from repro.cluster import (
        AdaptivePvcRouter,
        ClusterSimulator,
        ConsolidatePlacement,
        ConsolidateRouter,
        DynamicConsolidateRouter,
        HashSplitPlacement,
        HashSplitRouter,
        LeastLoadedPlacement,
        LeastLoadedRouter,
        MasterQueue,
        PowerCapRouter,
        RoundRobinRouter,
        uniform_fleet,
    )
    from repro.core.qed.policy import BatchPolicy
    from repro.db.profiles import mysql_profile
    from repro.workloads.runner import TraceCache
    from repro.workloads.selection import selection_workload
    from repro.workloads.tpch.generator import tpch_database

    qed_mode = args.qed or "off"
    if qed_mode == "off" and args.qed_threshold is not None:
        # The threshold never implies a mode on its own, and an
        # explicit --qed off contradicts it.
        print("error: --qed-threshold needs --qed master|node",
              file=sys.stderr)
        return 2
    if qed_mode != "off" and args.qed_threshold is None:
        print("error: --qed master|node needs --qed-threshold (the "
              "batch-dispatch threshold)", file=sys.stderr)
        return 2
    if qed_mode == "off" and args.qed_max_wait is not None:
        print("error: --qed-max-wait needs --qed master|node (no queue "
              "exists without a QED mode)", file=sys.stderr)
        return 2
    if args.qed_placement is not None and qed_mode != "master":
        print("error: --qed-placement only applies to --qed master "
              "(per-node queues dispatch on their own node)",
              file=sys.stderr)
        return 2
    if (
        qed_mode == "master"
        and args.policy in ("consolidate", "dynamic", "adaptive")
        and (args.qed_placement or "least") != "consolidate"
    ):
        print("error: a consolidate- or adaptive-family --policy under "
              "--qed master needs --qed-placement consolidate (the "
              "policy only acts on routed dispatches)", file=sys.stderr)
        return 2
    if args.policy == "powercap" and qed_mode != "off":
        print("error: the powercap policy cannot cap QED-queued work "
              "(batch dispatch re-times it); drop --qed or pick "
              "another policy", file=sys.stderr)
        return 2
    if qed_mode == "node" and args.fleet is not None:
        print("error: --qed node cannot apply to a --fleet description "
              "(its groups carry no queue policy); use --qed master",
              file=sys.stderr)
        return 2
    if args.faults is None and (
        args.retry_max is not None or args.retry_backoff is not None
    ):
        print("error: --retry-max/--retry-backoff tune the fault "
              "recovery policy and need --faults", file=sys.stderr)
        return 2
    if args.placement is not None and (
        args.shards is not None or args.replicas is not None
        or args.quorum is not None
    ):
        print("error: --placement loads a full map and excludes "
              "--shards/--replicas/--quorum", file=sys.stderr)
        return 2
    if args.shards is None and (
        args.replicas is not None or args.quorum is not None
    ):
        print("error: --replicas/--quorum shape a generated placement "
              "and need --shards", file=sys.stderr)
        return 2
    # Validate every flag-derived object *before* the expensive
    # database build so bad flags fail fast with a clean message.
    try:
        if args.arrivals < 0:
            raise ValueError("--arrivals must be non-negative")
        queries = selection_workload(args.distinct).queries
        stream, schedule = _build_stream(args, queries)
        if args.policy == "spread":
            router = RoundRobinRouter()
        elif args.policy == "least":
            router = LeastLoadedRouter()
        elif args.policy == "hash":
            router = HashSplitRouter()
        elif args.policy == "consolidate":
            router = ConsolidateRouter(max_backlog_s=args.max_backlog)
        elif args.policy == "dynamic":
            router = DynamicConsolidateRouter(
                max_backlog_s=args.max_backlog,
                target_utilization=args.target_util,
                hysteresis=args.hysteresis,
                min_awake=args.min_awake,
                schedule=schedule,
            )
        elif args.policy == "adaptive":
            router = AdaptivePvcRouter(deadline_s=args.deadline)
        else:
            router = PowerCapRouter(
                cap_w=args.cap_w, max_delay_s=args.max_delay
            )
        policy = (
            BatchPolicy(args.qed_threshold, max_wait_s=args.qed_max_wait)
            if qed_mode != "off" else None
        )
        master_queue = None
        if qed_mode == "master":
            placement = {
                "least": LeastLoadedPlacement,
                "consolidate": ConsolidatePlacement,
                "hash": HashSplitPlacement,
            }[args.qed_placement or "least"]()
            master_queue = MasterQueue(policy, placement=placement)
        if args.fleet is not None:
            from repro.cluster import load_fleet

            specs = load_fleet(args.fleet)
        else:
            specs = uniform_fleet(
                args.nodes,
                wake_latency_s=args.wake_latency,
                queue_policy=policy if qed_mode == "node" else None,
            )
        if args.window is not None and not 0 < args.window < math.inf:
            raise ValueError("--window must be positive and finite")
        # An empty stream is a valid (if degenerate) run: the simulator
        # returns a well-formed zero-arrival measurement.
        fault_plan = None
        retry = None
        if args.faults is not None:
            from repro.cluster import RetryPolicy, load_fault_plan

            fault_plan = load_fault_plan(args.faults)
            retry = RetryPolicy(
                max_attempts=(
                    args.retry_max if args.retry_max is not None else 3
                ),
                backoff_s=(
                    args.retry_backoff
                    if args.retry_backoff is not None else 1.0
                ),
            )
        placement_map = None
        if args.placement is not None:
            from repro.cluster import load_placement

            placement_map = load_placement(args.placement)
        elif args.shards is not None:
            from repro.cluster import generate_placement

            quorum = 1
            if args.quorum is not None:
                quorum = (
                    "majority" if args.quorum == "majority"
                    else int(args.quorum)
                )
            placement_map = generate_placement(
                specs, shards=args.shards,
                replicas=(
                    args.replicas if args.replicas is not None else 1
                ),
                quorum=quorum,
            )
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = None
    metrics = None
    if args.trace is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer()
    if args.metrics is not None:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry(
            window_s=args.window if args.window is not None else 30.0
        )

    print(f"building lineitem database at SF {args.sf} ...")
    db = tpch_database(args.sf, mysql_profile(), seed=0,
                       tables=["lineitem"])
    trace_cache = (
        TraceCache.for_workload(args.trace_cache, "mysql", args.sf,
                                seed=0, tables=("lineitem",))
        if args.trace_cache else None
    )
    try:
        sim = ClusterSimulator(db, specs, router, trace_cache=trace_cache,
                               master_queue=master_queue, faults=fault_plan,
                               retry=retry, placement=placement_map,
                               tracer=tracer, metrics=metrics)
        scheduled = sim.schedule(stream)
        m = sim.playback(scheduled)
    except ValueError as exc:
        # e.g. a placement map naming nodes outside the fleet, or a
        # power cap below the fleet's idle floor
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The simulator picks the engine from what it can observe; say
    # which one ran, and why when it was the per-arrival loop.
    engine = scheduled.engine
    if engine == "loop":
        engine = f"loop ({sim.vectorized_ineligibility()})"
    # The report reads the measurement alone; holding the schedule
    # through it costs ~12 MB of peak RSS at 400k arrivals.
    del scheduled
    print(f"\ncluster: {len(specs)} nodes, {len(stream)} arrivals "
          f"({args.profile}), policy={args.policy}, engine={engine}")
    print(f"  {'node':8s} {'queries':>7} {'util':>6} {'busy s':>8} "
          f"{'idle s':>8} {'sleep s':>8} {'energy J':>10}")
    for n in m.nodes:
        print(f"  {n.name:8s} {n.queries:7d} {n.utilization:6.1%} "
              f"{n.busy_s:8.2f} {n.idle_s:8.2f} {n.sleep_s:8.2f} "
              f"{n.wall_joules:10.1f}")
    print(f"  served {m.served}, shed {len(m.shed)}, "
          f"awake nodes {m.awake_nodes}/{len(m.nodes)}, "
          f"re-sleeps {m.re_sleeps}")
    if placement_map is not None:
        shard_count = sum(
            tp.shards for tp in placement_map.tables.values()
        )
        print(f"  placement      : {len(placement_map.tables)} "
              f"table(s), {shard_count} shards over "
              f"{len(placement_map.node_names)} nodes")
    if m.qed is not None:
        q = m.qed
        print(f"  QED ({q.mode}): {q.batches} batches, mean size "
              f"{q.mean_batch_size:.1f}, {q.merged_windows} merged / "
              f"{q.singleton_windows} singleton windows, "
              f"{q.fallback_batches} non-mergeable fallbacks")
        print(f"  {'partition':44s} {'queries':>7} {'batches':>7} "
              f"{'mean':>5} {'max':>4} {'merged':>6} {'fallbk':>6}")
        for p in q.partitions:
            print(f"  {p.partition[:44]:44s} {p.queries:7d} "
                  f"{p.batches:7d} {p.mean_batch_size:5.1f} "
                  f"{p.max_batch:4d} {p.merged_windows:6d} "
                  f"{p.fallback_batches:6d}")
    print(f"  horizon        : {m.horizon_s:10.2f} s")
    print(f"  wall energy    : {m.wall_joules:10.1f} J "
          f"(avg {m.avg_power_w:.1f} W, peak model {m.peak_power_w:.1f} W)")
    print(f"  EDP            : {m.edp:10.1f} J*s")
    print(f"  response p50   : {m.p50_response_s*1e3:10.1f} ms")
    print(f"  response p95   : {m.p95_response_s*1e3:10.1f} ms")
    print(f"  response p99   : {m.p99_response_s*1e3:10.1f} ms")
    if args.sla is not None:
        print(f"  SLA {args.sla:.3f}s misses: "
              f"{m.sla_violations(args.sla)}")
    if m.faults is not None:
        f = m.faults
        print(f"  faults         : {f.crashes} crashes, "
              f"{f.failed_wakes} failed wakes, {f.retries} retries "
              f"({f.requeued} requeued from crashes), "
              f"{f.dead_lettered} dead-lettered")
        print(f"  wasted work    : {f.wasted_busy_s:10.2f} s busy, "
              f"{f.wasted_joules:.1f} J written off")
        if f.re_replications:
            print(f"  re-replication : {f.re_replications} shard "
                  f"copies, {f.copy_s:.2f} s copy work, "
                  f"{f.copy_joules:.1f} J")
        if args.sla is not None:
            split = m.sla_split(args.sla)
            print(f"  SLA split      : affected "
                  f"{split['affected_met']:.0f}/"
                  f"{split['affected_total']:.0f} "
                  f"({split['affected_attainment']:.1%}), unaffected "
                  f"{split['unaffected_met']:.0f}/"
                  f"{split['unaffected_total']:.0f} "
                  f"({split['unaffected_attainment']:.1%})")
    if args.window is not None:
        windows = m.window_report(args.window)
        # Bounds to the window length's decimal places, so every start
        # is told apart; the last window closes at the horizon, which
        # gets two more places.
        digits, _, exponent = f"{args.window:g}".partition("e")
        places = max(0, len(digits.partition(".")[2]) - int(exponent or 0))
        bounds = [
            f"[{w.start_s:.{places}f}, {w.end_s:.{places}f})"
            for w in windows[:-1]
        ]
        last = windows[-1]
        bounds.append(f"[{last.start_s:.{places}f}, "
                      f"{last.end_s:.{places + 2}f}]")
        width = max(14, *map(len, bounds))
        print(f"\n  phase report ({args.window:g} s windows):")
        print(f"  {'window':>{width}} {'arrivals':>8} {'modeled J':>10} "
              f"{'avg W':>7} {'awake n·s':>9} {'re-sleep':>8} "
              f"{'p95 ms':>8}")
        for span, w in zip(bounds, windows):
            print(f"  {span:>{width}} {w.arrivals:8d} "
                  f"{w.modeled_joules:10.1f} {w.avg_power_w:7.1f} "
                  f"{w.awake_node_s:9.1f} {w.re_sleeps:8d} "
                  f"{w.p95_response_s*1e3:8.1f}")
    if m.run_id is not None:
        print(f"  run id         : {m.run_id}")
    try:
        if tracer is not None:
            from repro.obs import write_trace

            meta = write_trace(args.trace, tracer, measurement=m)
            att = meta["attribution"]
            print(f"  trace          : {args.trace} "
                  f"({len(tracer.spans)} spans)")
            print(f"  energy reconcile: "
                  f"{att['reconciliation_abs_j']:.3e} J "
                  f"(rel {att['reconciliation_rel']:.3e})")
        if metrics is not None:
            from repro.obs import write_metrics

            write_metrics(args.metrics, metrics)
            print(f"  metrics        : {args.metrics} "
                  f"({len(metrics.samples)} samples, "
                  f"{metrics.window_s:g} s windows)")
    except OSError as exc:  # an unwritable --trace / --metrics path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if m.cap_w is not None:
        print(f"  power cap      : {m.cap_w:.1f} W "
              f"(overshoot {m.power_cap_overshoot_w:.2f} W)")
        return 1 if m.power_cap_overshoot_w > 0 else 0
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args.paths, fmt=args.format)


def cmd_obs_report(args) -> int:
    from repro.obs import (
        load_trace,
        render_attribution,
        render_span_stats,
        span_stats,
        validate_trace,
    )

    try:
        meta, spans = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = validate_trace(meta, spans)
    print(f"trace: {args.trace}")
    print(f"  run id  : {meta.get('run_id')}")
    print(f"  horizon : {float(meta.get('horizon_s', 0.0)):.2f} s")
    print(f"  spans   : {len(spans)}")
    stats = span_stats(spans)
    if stats:
        print()
        print(render_span_stats(stats))
    attribution = meta.get("attribution")
    if attribution is not None:
        print()
        print(render_attribution(attribution))
    if errors:
        print()
        for err in errors:
            print(f"INVALID: {err}", file=sys.stderr)
        return 1
    print("\ntrace valid")
    return 0


def cmd_experiments(args) -> int:
    status = 0
    status |= cmd_table1(args)
    for profile in ("commercial", "mysql"):
        args.profile = profile
        status |= cmd_pvc(args)
    status |= cmd_disk(args)
    status |= cmd_warmcold(args)
    args.batches = list(targets.QED_BATCH_SIZES)
    status |= cmd_qed(args)
    print("\nall experiments within tolerance"
          if status == 0 else "\nSOME EXPERIMENTS OUT OF TOLERANCE")
    return status


def _scale_factor(text: str) -> float:
    """argparse ``type=`` of every ``--sf``: positive and finite."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"scale factor must be positive and finite, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the CIDR'09 ecoDB experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1 power breakdown")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("pvc", help="PVC sweep (Figures 1-3)")
    p.add_argument("--profile", choices=("commercial", "mysql"),
                   default="commercial")
    p.add_argument("--sf", type=_scale_factor, default=0.02,
                   help="TPC-H scale factor")
    p.set_defaults(func=cmd_pvc)

    p = sub.add_parser("qed", help="QED comparison (Figure 6)")
    p.add_argument("--sf", type=_scale_factor, default=0.05)
    p.add_argument("--batches", type=int, nargs="+",
                   default=list(targets.QED_BATCH_SIZES))
    p.set_defaults(func=cmd_qed)

    p = sub.add_parser("disk", help="disk access patterns (Figure 5)")
    p.set_defaults(func=cmd_disk)

    p = sub.add_parser("warmcold", help="warm vs cold runs (Sec 3.5)")
    p.add_argument("--sf", type=_scale_factor, default=0.02)
    p.set_defaults(func=cmd_warmcold)

    p = sub.add_parser(
        "cluster",
        help="simulate an arrival stream across a fleet",
    )
    p.add_argument("--sf", type=_scale_factor, default=0.01,
                   help="TPC-H scale factor")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--arrivals", type=int, default=200)
    p.add_argument("--distinct", type=int, default=20,
                   help="distinct selection queries cycled by arrivals")
    p.add_argument("--policy",
                   choices=("spread", "least", "hash", "consolidate",
                            "dynamic", "adaptive", "powercap"),
                   default="spread")
    p.add_argument("--profile",
                   choices=("poisson", "uniform", "bursty", "diurnal",
                            "ramp"),
                   default="poisson",
                   help="arrival load profile (diurnal/ramp are "
                        "rate-schedule driven; --arrivals is ignored)")
    p.add_argument("--fleet", default=None, metavar="FLEET.json",
                   help="heterogeneous fleet description (overrides "
                        "--nodes/--wake-latency; composes with "
                        "--qed master, excludes --qed node)")
    p.add_argument("--mean-interarrival", type=float, default=0.05,
                   help="poisson/uniform mean inter-arrival time (s)")
    p.add_argument("--base-rate", type=float, default=2.0,
                   help="diurnal trough / ramp start rate (q/s)")
    p.add_argument("--peak-rate", type=float, default=20.0,
                   help="diurnal crest / ramp end rate (q/s)")
    p.add_argument("--period", type=float, default=120.0,
                   help="diurnal: seconds per day/night cycle")
    p.add_argument("--horizon", type=float, default=240.0,
                   help="diurnal/ramp: stream length (s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wake-latency", type=float, default=30.0,
                   help="sleep-to-awake transition (s)")
    p.add_argument("--max-backlog", type=float, default=1.0,
                   help="consolidate/dynamic: per-node backlog cap (s)")
    p.add_argument("--target-util", type=float, default=0.7,
                   help="dynamic: awake-set sizing target utilization")
    p.add_argument("--hysteresis", type=float, default=0.3,
                   help="dynamic: re-sleep hysteresis band")
    p.add_argument("--min-awake", type=int, default=1,
                   help="dynamic: never sleep below this many nodes")
    p.add_argument("--deadline", type=float, default=0.5,
                   help="adaptive: per-query response deadline (s)")
    p.add_argument("--window", type=float, default=None,
                   help="print a phase report sliced in windows (s)")
    p.add_argument("--cap-w", type=float, default=500.0,
                   help="powercap: fleet wall-power cap (W)")
    p.add_argument("--max-delay", type=float, default=None,
                   help="powercap: shed if delayed more than this (s)")
    p.add_argument("--qed", choices=("master", "node", "off"),
                   default=None,
                   help="QED admission queueing: one master queue on "
                        "the coordinator partitioned by mergeable "
                        "template (the paper's design), a private "
                        "queue per node, or none")
    p.add_argument("--qed-threshold", type=int, default=None,
                   help="QED batch-dispatch threshold (queries)")
    p.add_argument("--qed-max-wait", type=float, default=None,
                   help="QED queue timeout (s): a partial batch "
                        "dispatches once its oldest query waited this "
                        "long")
    p.add_argument("--qed-placement",
                   choices=("least", "consolidate", "hash"),
                   default=None,
                   help="master-queue batch placement (default least): "
                        "least-loaded awake node, delegate to the "
                        "routing policy (cooperates with dynamic "
                        "consolidation), or hash-split one merged "
                        "batch across nodes")
    p.add_argument("--sla", type=float, default=None,
                   help="report response-time SLA misses (s)")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault-injection plan: seeded crashes, wake "
                        "failures, stragglers, unavailability windows")
    p.add_argument("--retry-max", type=int, default=None,
                   help="faults: retry attempts before a lost query is "
                        "dead-lettered (default 3)")
    p.add_argument("--retry-backoff", type=float, default=None,
                   help="faults: base retry backoff in seconds, "
                        "doubling per attempt (default 1.0)")
    p.add_argument("--placement", default=None, metavar="PLAN.json",
                   help="data-placement map: partitioned tables with "
                        "replicated shards pinned to named nodes "
                        "(excludes --shards/--replicas/--quorum)")
    p.add_argument("--shards", type=int, default=None,
                   help="generate a default placement: hash-partition "
                        "lineitem into this many shards spread over "
                        "the fleet by chained declustering")
    p.add_argument("--replicas", type=int, default=None,
                   help="replicas per generated shard (default 1; "
                        "needs --shards)")
    p.add_argument("--quorum", default=None,
                   help="generated placement: awake replicas required "
                        "per shard before consolidation may sleep a "
                        "holder -- an integer or 'majority' "
                        "(default 1; needs --shards)")
    p.add_argument("--trace-cache", default=None, metavar="DIR",
                   help="persist compiled traces across processes (one "
                        "append-only memory-mapped container per "
                        "workload namespace)")
    p.add_argument("--trace", default=None, metavar="TRACE.json",
                   help="export a per-query span trace: .jsonl is "
                        "line-delimited, anything else is Chrome "
                        "trace_event JSON (loads in Perfetto / "
                        "chrome://tracing)")
    p.add_argument("--metrics", default=None, metavar="METRICS.json",
                   help="export streaming metrics sampled on --window "
                        "boundaries (30 s default when --window unset)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("obs", help="observability trace tooling")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    r = obs_sub.add_parser(
        "report",
        help="validate an exported trace; print span and energy "
             "attribution breakdowns",
    )
    r.add_argument("trace", help="trace file (.jsonl or Chrome JSON)")
    r.set_defaults(func=cmd_obs_report)

    p = sub.add_parser(
        "lint",
        help="AST invariant linter (determinism, zero-cost "
             "observability, trace-store lock discipline)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: src scripts "
                        "benchmarks examples tests)")
    p.add_argument("--format", choices=("text", "json"),
                   default="text",
                   help="text findings or a machine-readable JSON "
                        "report")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("experiments", help="run everything")
    p.add_argument("--sf", type=_scale_factor, default=0.02)
    p.set_defaults(func=cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
