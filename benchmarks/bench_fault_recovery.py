"""Ablation: fault injection & recovery at cluster scale (ISSUE 6).

The consolidation energy claims assume every node wakes on command and
finishes every batch.  This bench runs the canonical fault plan --
a straggler window on the hot node, a crash that kills it mid-batch,
an always-fail wake window on the obvious replacement, and a transient
unavailability window -- over the same Poisson stream in two fleet
modes: always-awake spread (round-robin) and dynamic consolidation
with the recovery layer (retry policy, replacement re-wake).  The
result is appended to ``BENCH_perf.json`` under ``faults``.

Gates: the ``faults.*`` rows of ``repro.measurement.gates``, enforced
by the artifact writer:

* the plan is genuinely active: >= 1 crash that takes in-flight work
  (requeues prove it struck mid-batch), >= 1 failed wake, and the
  straggler window is part of the canonical plan;
* consolidate-with-recovery still beats always-awake spread on cluster
  energy at the equal SLA-miss budget (1% of arrivals);
* no query is silently lost: every arrival is served exactly once or
  visibly dead-lettered, in both modes.

Smoke configuration: ``REPRO_BENCH_FAULT_ARRIVALS`` shrinks the stream
for CI; ``REPRO_TRACE_CACHE`` persists compiled traces across
benchmark processes.
"""

from repro.measurement.perf import run_fault_ablation


def test_fault_recovery_ablation(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    ablation = benchmark.pedantic(
        run_fault_ablation,
        args=(lineitem_runner.db,),
        kwargs=dict(scale_factor=bench_sf,
                    trace_cache=bench_trace_cache),
        rounds=1, iterations=1,
    )

    ablation.table().print()

    bench_artifact({"faults": ablation.to_dict()})

    # On top of the gated flags: the crash struck in *both* modes, and
    # the conservation arithmetic adds up mode by mode.
    for name, stats in ablation.modes.items():
        assert stats["faults"]["crashes"] >= 1, name
        assert stats["served"] + stats["shed"] == ablation.arrivals, name
        assert stats["shed"] == stats["faults"]["dead_lettered"], name
