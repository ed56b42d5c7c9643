"""Ablation: QED admission queueing at cluster scale (ISSUE 5).

The paper's deployment story puts the QED queue on the always-on
master, not on the workers.  The canonical mixed-template stream (two
mergeable selection templates plus an occasional non-mergeable shape)
runs three ways over the same fleet -- no queueing, a private queue per
node behind a load balancer, and one master queue partitioned by
mergeable template -- and the result is appended to ``BENCH_perf.json``
under ``qed``.

Gates: the ``qed.*`` rows of ``repro.measurement.gates``, enforced by
the artifact writer -- master QED beats per-node QED on cluster energy,
which in turn beats no QED, all at the equal SLA-miss budget (1% of
arrivals).  Asserted here on top of them:

* the mixed-template workload completes without ``NotMergeableError``
  in every mode -- per-node queues exercise the singleton fallback
  (the former crash), the master queue partitions so it never needs it.

Smoke configuration: ``REPRO_BENCH_QED_ARRIVALS`` shrinks the stream
for CI; ``REPRO_TRACE_CACHE`` persists compiled traces across
benchmark processes.
"""

from repro.measurement.perf import run_qed_ablation


def test_qed_mode_ablation(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    ablation = benchmark.pedantic(
        run_qed_ablation,
        args=(lineitem_runner.db,),
        kwargs=dict(scale_factor=bench_sf,
                    trace_cache=bench_trace_cache),
        rounds=1, iterations=1,
    )

    ablation.table().print()

    bench_artifact({"qed": ablation.to_dict()})

    # Conservation: the mixed-template stream completes in every mode
    # (the per-node path used to crash with NotMergeableError here).
    for name, stats in ablation.modes.items():
        assert stats["served"] + stats["shed"] == ablation.arrivals, name
        assert stats["shed"] == 0, name
    # The regression is genuinely exercised: per-node queues received
    # mixed batches and degraded them to singletons...
    assert ablation.modes["node"]["qed_fallback_batches"] > 0
    # ... while the master queue partitions and never falls back.
    assert ablation.modes["master"]["qed_fallback_batches"] == 0
    # Fleet-wide batching merges more queries per execution.
    assert (
        ablation.modes["master"]["qed_mean_batch_size"]
        > ablation.modes["node"]["qed_mean_batch_size"]
    )
