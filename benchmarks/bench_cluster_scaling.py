"""Perf: fleet-scale batched playback vs the per-query replay loop,
and the vectorized event core vs the per-arrival scheduling loop.

A 16-node x 10k-arrival simulation resolves every arrival to a cached
execution and plays each node's whole timeline as one stacked array
operation per distinct PVC setting.  The naive alternative -- one
``run_compiled`` call per scheduled piece, ~10k+ Python-level playback
calls -- must be >= 5x slower on the playback phase while producing
cluster energy totals identical to <= 1e-9 relative.  The scheduler
gate is the same shape one layer up: chunked closed-form FIFO
sequencing over a 100-node fleet must beat the per-arrival event loop
>= 5x at 100k arrivals with per-node energies identical to <= 1e-9
relative, and the vectorized-only tier must push 1M arrivals x 100
nodes through schedule + playback in seconds.  Results land in
``BENCH_perf.json`` under ``cluster_scaling`` (the artifact writer
merges each test's keys into the shared record).

Smoke configuration: ``REPRO_BENCH_CLUSTER_NODES`` /
``REPRO_BENCH_CLUSTER_ARRIVALS`` shrink the playback scenario,
``REPRO_BENCH_SCALING_NODES`` / ``REPRO_BENCH_SCALING_ARRIVALS`` /
``REPRO_BENCH_SCALING_COMPARE_ARRIVALS`` the scheduler scenarios;
``REPRO_TRACE_CACHE`` points at a directory to persist compiled traces
across benchmark processes.
"""

from repro.cluster import RoundRobinRouter
from repro.measurement.perf import (
    cluster_scaling_scenario,
    compare_cluster_playback,
    compare_cluster_scheduling,
    scheduler_compare_arrivals,
    scheduler_scaling_scenario,
    time_vectorized_tier,
)

#: The recorded gates (``cluster_scaling.*`` in
#: ``repro.measurement.gates``) are enforced by the artifact writer;
#: this bound covers the deviations that are asserted but not recorded.
MAX_REL_DIFF = 1e-9
#: "Seconds, not minutes" for the full 1M x 100 tier; generous enough
#: to absorb a loaded CI machine without letting a regression to the
#: per-arrival loop (minutes) through.
MAX_TIER_WALL_S = 120.0


def run_cluster_comparison(runner, scale_factor, trace_cache):
    specs, router, stream = cluster_scaling_scenario()
    return compare_cluster_playback(
        runner.db, specs, router, stream,
        scale_factor=scale_factor, trace_cache=trace_cache,
    )


def test_cluster_batched_playback_speedup(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    comparison = benchmark.pedantic(
        run_cluster_comparison,
        args=(lineitem_runner, bench_sf, bench_trace_cache),
        rounds=1, iterations=1,
    )

    comparison.table().print()

    bench_artifact({"cluster_scaling": comparison.to_dict()})

    # Identical energy in total too, to float-summation order.
    total_rel = abs(
        comparison.batched_wall_joules - comparison.loop_wall_joules
    ) / comparison.batched_wall_joules
    assert total_rel <= MAX_REL_DIFF
    # Span tracing must observe, never perturb: the traced schedule's
    # playback energies match the untraced run to the same bound.
    assert comparison.traced_max_rel_diff <= MAX_REL_DIFF
    assert comparison.traced_spans > 0


def run_scheduler_comparison(runner, scale_factor, trace_cache):
    specs, _router, stream = scheduler_scaling_scenario(
        count=scheduler_compare_arrivals()
    )
    return compare_cluster_scheduling(
        runner.db, specs, RoundRobinRouter, stream,
        scale_factor=scale_factor, trace_cache=trace_cache,
    )


def test_vectorized_scheduler_speedup(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    comparison = benchmark.pedantic(
        run_scheduler_comparison,
        args=(lineitem_runner, bench_sf, bench_trace_cache),
        rounds=1, iterations=1,
    )

    comparison.table().print()

    # Gated on write: same dispatch, per-node energies identical to
    # float-summation order, and the chunked event core >= 5x over the
    # per-arrival loop on the scheduling phase.
    bench_artifact({"cluster_scaling": comparison.to_record()})


def test_million_arrival_tier(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    specs, router, stream = scheduler_scaling_scenario()
    tier = benchmark.pedantic(
        time_vectorized_tier,
        args=(lineitem_runner.db, specs, router, stream),
        kwargs={"scale_factor": bench_sf,
                "trace_cache": bench_trace_cache},
        rounds=1, iterations=1,
    )

    tier.table().print()

    bench_artifact({"cluster_scaling": tier.to_record()})

    assert tier.served == tier.arrivals
    assert tier.total_wall_s <= MAX_TIER_WALL_S
