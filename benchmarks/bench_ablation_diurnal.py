"""Ablation: fleet policies under the diurnal load profile.

The paper's deployment claim at fleet scale: when traffic swings
between a nighttime trough and a midday crest, energy should track
*load*, not *provisioning*.  The canonical diurnal scenario (two
compressed day/night cycles of nonhomogeneous Poisson arrivals over a
heterogeneous big+eco fleet) runs under four policies -- static spread,
one-shot consolidate, dynamic re-consolidation, adaptive per-node PVC
-- and the result is appended to ``BENCH_perf.json`` under ``diurnal``.

Gates: the ``diurnal.*`` rows of ``repro.measurement.gates``, enforced
by the artifact writer -- dynamic re-consolidation beats static spread
on energy while both hold the same SLA-miss budget (1% of arrivals at
the 0.5 s SLA), and the heterogeneous-fleet batched playback path
stays within 1e-9 relative energy of the per-query replay loop at
>= 5x its speed.

Smoke configuration: ``REPRO_BENCH_DIURNAL_HORIZON`` shrinks the
stream for CI; ``REPRO_TRACE_CACHE`` persists compiled traces across
benchmark processes.
"""

from repro.measurement.ablations import run_diurnal_ablation


def test_diurnal_policy_ablation(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact, smoke_sizes,
):
    ablation = benchmark.pedantic(
        run_diurnal_ablation,
        args=(lineitem_runner.db,),
        kwargs=dict(scale_factor=bench_sf,
                    trace_cache=bench_trace_cache,
                    **smoke_sizes["diurnal"]),
        rounds=1, iterations=1,
    )

    ablation.table().print()

    print("phase energy (modeled J):")
    for name, phases in ablation.phase_energy.items():
        print(f"  {name:12s} low {phases['low']:9.1f}  "
              f"mid {phases['mid']:9.1f}  peak {phases['peak']:9.1f}")

    bench_artifact({"diurnal": ablation.to_dict()})

    # Dynamic re-consolidation actually re-consolidates.
    assert ablation.policies["dynamic"]["re_sleeps"] > 0
    # The one-shot packer never re-sleeps; the dynamic policy must not
    # spend more awake node-seconds than static spread.
    assert ablation.policies["consolidate"]["re_sleeps"] == 0
    assert (
        ablation.policies["dynamic"]["awake_node_s"]
        < ablation.policies["spread"]["awake_node_s"]
    )
