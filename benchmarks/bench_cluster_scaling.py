"""The vectorized event core vs the per-arrival scheduling loop.

Chunked closed-form FIFO sequencing over a 100-node fleet must dispatch
100k arrivals exactly as the per-arrival event loop does, with per-node
energies identical to <= 1e-9 relative.  Results land in
``BENCH_perf.json`` under ``cluster_scaling``.

Smoke configuration: ``REPRO_BENCH_SCALING_NODES`` /
``REPRO_BENCH_SCALING_COMPARE_ARRIVALS`` shrink the scenario;
``REPRO_TRACE_CACHE`` points at a directory to persist compiled traces
across benchmark processes.
"""

from repro.cluster import RoundRobinRouter
from repro.measurement.ablations import (
    compare_cluster_scheduling,
    scheduler_scaling_scenario,
)


def run_scheduler_comparison(runner, scale_factor, trace_cache, sizes):
    specs, _router, stream = scheduler_scaling_scenario(**sizes)
    return compare_cluster_scheduling(
        runner.db, specs, RoundRobinRouter, stream,
        scale_factor=scale_factor, trace_cache=trace_cache,
    )


def test_vectorized_scheduler_identity(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact, smoke_sizes,
):
    comparison = benchmark.pedantic(
        run_scheduler_comparison,
        args=(lineitem_runner, bench_sf, bench_trace_cache,
              smoke_sizes["scaling"]),
        rounds=1, iterations=1,
    )

    comparison.table().print()

    # Gated on write: same dispatch, per-node energies identical to
    # float-summation order.
    bench_artifact({"cluster_scaling": comparison.to_record()})
