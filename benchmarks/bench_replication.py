"""Ablation: replicated shards, quorum consolidation, recovery (ISSUE 9).

The placement layer partitions lineitem into hash shards with k
replicas chained across the fleet; routers see only the owning replica
sets and quorum-aware consolidation never sleeps the last awake holder
of a shard.  This bench runs the canonical replication fault plan -- a
straggler window on node00, a crash that kills it mid-batch (taking a
replica of every shard it held and triggering re-replication copy
traffic billed on both endpoints), and a transient unavailability
window -- over the same Poisson stream in two fleet modes: always-awake
spread (round-robin over each statement's replica set) and dynamic
consolidation under the quorum constraint.  The result is appended to
``BENCH_perf.json`` under ``replication``.

Gates: the ``replication.*`` rows of ``repro.measurement.gates``,
enforced by the artifact writer:

* the crash genuinely bit the placement: >= 1 re-replication copy in
  both modes, with copy seconds and joules billed on the report;
* replication is restored: every shard is back at (or above) its
  replica target on live nodes by the end of the run;
* quorum-aware consolidation spends no more energy than always-awake
  spread at the equal SLA-miss budget (1% of arrivals) while the crash
  and its copy traffic are in flight;
* no query is silently lost: every arrival is served exactly once or
  visibly dead-lettered, in both modes.

Smoke configuration: ``REPRO_BENCH_REPLICATION_ARRIVALS`` shrinks the
stream for CI; ``REPRO_TRACE_CACHE`` persists compiled traces across
benchmark processes.
"""

from repro.measurement.ablations import run_replication_ablation


def test_replication_ablation(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact, smoke_sizes,
):
    ablation = benchmark.pedantic(
        run_replication_ablation,
        args=(lineitem_runner.db,),
        kwargs=dict(scale_factor=bench_sf,
                    trace_cache=bench_trace_cache,
                    **smoke_sizes["replication"]),
        rounds=1, iterations=1,
    )

    ablation.table().print()

    bench_artifact({"replication": ablation.to_dict()})

    # On top of the gated flags: the shard copies were billed on both
    # endpoints, and the conservation arithmetic adds up mode by mode.
    for name, stats in ablation.modes.items():
        assert stats["faults"]["crashes"] >= 1, name
        assert stats["faults"]["copy_joules"] > 0.0, name
        assert stats["faults"]["copy_s"] > 0.0, name
        assert stats["served"] + stats["shed"] == ablation.arrivals, name
        assert stats["shed"] == stats["faults"]["dead_lettered"], name
