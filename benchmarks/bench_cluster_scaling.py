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
relative.  Results land in ``BENCH_perf.json`` under
``cluster_scaling`` (the artifact writer merges each test's keys into
the shared record).

Smoke configuration: ``REPRO_BENCH_CLUSTER_NODES`` /
``REPRO_BENCH_CLUSTER_ARRIVALS`` shrink the playback scenario,
``REPRO_BENCH_SCALING_NODES`` /
``REPRO_BENCH_SCALING_COMPARE_ARRIVALS`` the scheduler scenario;
``REPRO_TRACE_CACHE`` points at a directory to persist compiled traces
across benchmark processes.
"""

from repro.cluster import RoundRobinRouter
from repro.measurement.perf import (
    cluster_scaling_scenario,
    compare_cluster_playback,
    compare_cluster_scheduling,
    scheduler_scaling_scenario,
)

#: The recorded gates (``cluster_scaling.*`` in
#: ``repro.measurement.gates``) are enforced by the artifact writer;
#: this bound covers the deviation that is asserted but not recorded.
MAX_REL_DIFF = 1e-9


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


def run_scheduler_comparison(runner, scale_factor, trace_cache):
    specs, _router, stream = scheduler_scaling_scenario()
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

