"""The canonical cluster scenarios behind ``BENCH_perf.json``.

Four energy ablations -- diurnal policies on a heterogeneous fleet, QED
queue placement, fault recovery, and recovery on a replicated fleet --
each run one scenario under several named modes and come back as one
:class:`Ablation` record whose gates live in
:mod:`repro.measurement.gates`.  Beside them,
:func:`compare_cluster_scheduling` holds the vectorized event core to
the per-arrival scheduling loop on one stream (the ``cluster_scaling``
section).  Every recorded value is simulated, so a re-run reproduces
the record bit for bit; nothing here reads the host clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    LeastLoadedRouter,
    MasterQueue,
    NodeGroup,
    RetryPolicy,
    RoundRobinRouter,
    generate_placement,
    hetero_fleet,
    uniform_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.db.engine import Database
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.measurement import gates
from repro.measurement.report import ComparisonTable
from repro.workloads.arrivals import (
    ArrivalStream,
    diurnal_schedule,
    poisson_arrivals,
    rate_schedule_arrivals,
)
from repro.workloads.runner import TraceCache
from repro.workloads.selection import selection_workload


def _sf_scale(sf: float | None, reference_sf: float) -> float:
    """Service times grow ~linearly with SF, so stream times, SLAs and
    fault windows calibrated at ``reference_sf`` stretch by this."""
    return sf / reference_sf if sf else 1.0


def _max_node_rel_diff(reference, other) -> float:
    """Worst per-node relative deviation in wall energy, CPU energy and
    duration between two playbacks of the same fleet."""
    worst = 0.0
    for a, b in zip(reference.nodes, other.nodes):
        for key in ("wall_joules", "cpu_joules", "duration_s"):
            x = getattr(a.playback, key)
            y = getattr(b.playback, key)
            worst = max(worst, abs(x - y) / (abs(x) or 1.0))
    return worst


# -- cluster scheduling: vectorized event core vs per-arrival loop --------

#: The canonical scheduling stream: Poisson arrivals cycling through the
#: first ``CLUSTER_DISTINCT`` selection statements.
CLUSTER_DISTINCT = 50
CLUSTER_MEAN_INTERARRIVAL_S = 0.01
CLUSTER_ARRIVAL_SEED = 7


def _cyclic_poisson_stream(count: int, distinct: int,
                           mean_interarrival_s: float,
                           seed: int) -> ArrivalStream:
    """``count`` Poisson arrivals cycling through the first ``distinct``
    selection-workload statements."""
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)],
        mean_interarrival_s, seed=seed,
    )


#: Canonical scheduler-scaling scenario: a 100-node fleet under 100k
#: arrivals (CI smoke runs pass smaller ``nodes`` / ``arrivals``).
SCALING_SCHED_NODES = 100
SCALING_COMPARE_ARRIVALS = 100_000


def scheduler_scaling_scenario(
    nodes: int = SCALING_SCHED_NODES,
    arrivals: int = SCALING_COMPARE_ARRIVALS,
) -> tuple[list, object, ArrivalStream]:
    """(specs, router, arrivals) for the scheduler identity.

    Round-robin routing: its chunked fast path is pure array math, so
    the comparison isolates the event core (the per-arrival loop
    versus closed-form FIFO sequencing), not router bookkeeping.
    """
    stream = _cyclic_poisson_stream(
        arrivals, CLUSTER_DISTINCT, CLUSTER_MEAN_INTERARRIVAL_S,
        CLUSTER_ARRIVAL_SEED,
    )
    return uniform_fleet(nodes), RoundRobinRouter(), stream


@dataclass
class SchedulingComparison:
    """Vectorized chunked scheduling vs the per-arrival event loop.

    Both engines schedule and play the *same* arrival stream on
    identically-configured fleets; ``max_rel_diff`` is the worst
    per-node relative deviation in wall energy, CPU energy, and busy
    duration between the two playbacks -- float-summation noise, never
    a real difference (dispatch counts must match exactly).
    """

    nodes: int
    arrivals: int
    scale_factor: float | None
    wall_joules: float
    max_rel_diff: float
    dispatch_match: bool
    run_id: str | None = None

    def to_record(self) -> dict:
        """The ``cluster_scaling`` artifact section."""
        return {
            "scale_factor": self.scale_factor,
            "sched_nodes": self.nodes,
            "sched_arrivals": self.arrivals,
            "sched_max_rel_diff": self.max_rel_diff,
            "sched_dispatch_match": self.dispatch_match,
            "sched_run_id": self.run_id,
        }

    def table(self) -> ComparisonTable:
        table = ComparisonTable(
            f"Event core: {self.nodes} nodes x {self.arrivals} arrivals "
            f"(run {self.run_id})"
        )
        table.add("cluster energy (J)", None, self.wall_joules, unit="J")
        table.add("max energy deviation", None, self.max_rel_diff)
        table.add("dispatch match", None, float(self.dispatch_match))
        return table


def compare_cluster_scheduling(
    db: Database,
    specs,
    router_factory,
    arrivals: ArrivalStream,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> SchedulingComparison:
    """Schedule and play one stream on both engines and compare them.

    ``router_factory`` builds a fresh router per engine (``schedule``
    re-prepares the fleet and the router, so one simulator serves both).
    """
    sim = ClusterSimulator(
        db, specs, router_factory(), trace_cache=trace_cache
    )

    def run(vectorized: bool):
        sim.router = router_factory()
        return sim.playback(sim.schedule(arrivals, vectorized=vectorized))

    legacy = run(False)
    vectorized = run(True)
    return SchedulingComparison(
        nodes=len(specs),
        arrivals=len(arrivals),
        scale_factor=scale_factor,
        wall_joules=vectorized.wall_joules,
        max_rel_diff=_max_node_rel_diff(vectorized, legacy),
        dispatch_match=(
            vectorized.served == legacy.served
            and all(a.queries == b.queries
                    for a, b in zip(vectorized.nodes, legacy.nodes))
        ),
        run_id=vectorized.run_id,
    )


# -- ablations: one record, gates derived from the gate table -------------

#: Per-mode statistics (``faults`` report flattened in) worth a row in
#: an ablation's printed table, where a mode records them.
_TABLE_STATS = (
    "wall_joules", "sla_misses", "awake_node_s", "re_sleeps",
    "qed_mean_batch_size", "qed_fallback_batches", "retries",
    "dead_lettered", "wasted_joules", "re_replications", "copy_joules",
    "min_live_holders",
)
_BEATS = re.compile(r"(\w+)_beats_(\w+)")
_SAVING = re.compile(r"(\w+)_vs_(\w+)_saving")


@dataclass
class Ablation:
    """One energy ablation: a scenario run under several named modes.

    ``config`` is the scenario's recorded configuration (it must hold
    ``arrivals`` and ``sla_budget``: every mode faces the same SLA-miss
    budget, that fraction of the arrivals), ``modes`` maps mode name to
    its statistics (each with ``wall_joules`` and ``sla_misses``), and
    ``extras`` carries what only this scenario records.
    :meth:`to_dict` is the artifact section: config, modes (under
    ``modes_key``), extras, and one derived value per gate-table row of
    ``section`` that the scenario did not supply -- see
    :mod:`repro.measurement.gates` for how a row's name says what it
    derives.  Every key of that dict also reads as an attribute
    (``ablation.arrivals``, ``ablation.conserved``).
    """

    section: str
    config: dict
    modes: dict[str, dict]
    modes_key: str = "modes"
    extras: dict = field(default_factory=dict)

    def within_budget(self, mode: str) -> bool:
        budget = self.config["sla_budget"] * self.config["arrivals"]
        return self.modes[mode]["sla_misses"] <= budget

    def beats(self, a: str, b: str, strict: bool = True) -> bool:
        """``a`` spends less energy than ``b`` (no more, when not
        ``strict``) while both hold the shared SLA-miss budget."""
        if not (self.within_budget(a) and self.within_budget(b)):
            return False
        joules_a = self.modes[a]["wall_joules"]
        joules_b = self.modes[b]["wall_joules"]
        return joules_a < joules_b if strict else joules_a <= joules_b

    def saving(self, a: str, b: str) -> float:
        return 1.0 - (
            self.modes[a]["wall_joules"] / self.modes[b]["wall_joules"]
        )

    def to_dict(self) -> dict:
        out = {**self.config, self.modes_key: self.modes, **self.extras}
        for gate in gates.section_rows(self.section):
            if gate.leaf in out:
                continue
            if match := _BEATS.fullmatch(gate.leaf):
                out[gate.leaf] = self.beats(*match.groups(),
                                            strict=gate.strict)
            elif match := _SAVING.fullmatch(gate.leaf):
                out[gate.leaf] = self.saving(*match.groups())
            else:
                out[gate.leaf] = all(
                    stats[gate.leaf] for stats in self.modes.values()
                )
        return out

    def table(self) -> ComparisonTable:
        """The ablation as the benches and ``perf_report.py`` print it:
        the headline statistics of each mode, then the section's gated
        values next to their bounds."""
        record = self.to_dict()
        table = ComparisonTable(f"{self.section} ablation: " + ", ".join(
            f"{key} {value}" for key, value in self.config.items()
        ))
        for mode, stats in self.modes.items():
            flat = {**stats, **stats.get("faults", {})}
            for key in _TABLE_STATS:
                if key in flat:
                    table.add(f"{mode}: {key}", None, float(flat[key]))
        for gate in gates.section_rows(self.section):
            table.add(f"{gate.leaf} (needs {gate.describe()})", None,
                      float(record[gate.leaf]))
        return table

    def __getattr__(self, name: str):
        # Reached only for names that are not fields or methods.
        if name.startswith("_") or name in self.__dataclass_fields__:
            raise AttributeError(name)
        try:
            return self.to_dict()[name]
        except KeyError:
            raise AttributeError(name) from None


def _mode_stats(m, sla_s: float) -> dict:
    """The statistics every queueing/recovery ablation mode records."""
    return {
        "run_id": m.run_id,
        "wall_joules": m.wall_joules,
        "edp": m.edp,
        "horizon_s": m.horizon_s,
        "served": m.served,
        "shed": len(m.shed),
        "sla_misses": m.sla_violations(sla_s),
        "p95_response_s": m.p95_response_s,
        "busy_s": sum(n.busy_s for n in m.nodes),
    }


def conserved(m, stream: ArrivalStream) -> bool:
    """No query silently lost: the served and shed stream indices
    cover ``range(len(stream))`` exactly once, and what was shed is
    exactly what the fault report dead-lettered.  Works on either
    engine's measurement."""
    served = m.response_columns.query_idx
    if served is None:
        served = np.arange(m.served)
    outcomes = np.concatenate(
        [served, np.array([s.query_idx for s in m.shed], dtype=np.int64)]
    )
    dead_lettered = m.faults.dead_lettered if m.faults is not None else 0
    return (
        len(outcomes) == len(stream)
        and (np.bincount(outcomes, minlength=len(stream)) == 1).all()
        and len(m.shed) == dead_lettered
    )


# -- diurnal ablation: static vs dynamic policies on a hetero fleet -------

#: Canonical diurnal scenario, shared by
#: ``benchmarks/bench_ablation_diurnal.py`` and ``scripts/perf_report.py``
#: so both write comparable ``diurnal`` records.  The compressed "day"
#: swings a nonhomogeneous Poisson stream between a nighttime trough
#: and a midday crest over a fleet mixing full-power and eco nodes.
#: Rates are calibrated at the reference scale factor; service times
#: grow ~linearly with SF, so :func:`diurnal_scenario` rescales the
#: rate curve by ``REFERENCE_SF / sf`` to keep the *offered load*
#: (Erlangs) -- and therefore the policy comparison -- scale-invariant.
DIURNAL_REFERENCE_SF = 0.01
DIURNAL_BASE_RATE = 1.0
DIURNAL_PEAK_RATE = 14.0
DIURNAL_PERIOD_S = 120.0
#: Two compressed day/night cycles.
DIURNAL_HORIZON_S = 240.0
DIURNAL_SEED = 7
DIURNAL_DISTINCT = 20
DIURNAL_SLA_S = 0.5
#: Equal SLA-miss budget for every policy: 1% of served arrivals.
DIURNAL_SLA_BUDGET = 0.01


def diurnal_scenario(sf: float | None = None,
                     horizon_s: float = DIURNAL_HORIZON_S):
    """(specs, schedule, stream) for the canonical diurnal comparison.

    Two compressed day/night cycles by default; CI smoke runs pass a
    shorter ``horizon_s`` (one cycle minimum keeps both a trough and a
    crest in play).  ``sf`` rescales the rate curve so the offered load
    matches the reference calibration at any scale factor.
    """
    rate_scale = DIURNAL_REFERENCE_SF / sf if sf else 1.0
    specs = hetero_fleet([
        NodeGroup(2, prefix="big", hw="paper", wake_latency_s=4.0),
        NodeGroup(2, prefix="eco", hw="paper-nogpu",
                  setting=PvcSetting(10, VoltageDowngrade.MEDIUM),
                  capacity=0.8, sleep_wall_w=2.5, wake_latency_s=6.0),
    ])
    schedule = diurnal_schedule(
        DIURNAL_BASE_RATE * rate_scale, DIURNAL_PEAK_RATE * rate_scale,
        DIURNAL_PERIOD_S, horizon_s,
    )
    stream = rate_schedule_arrivals(
        selection_workload(DIURNAL_DISTINCT).queries, schedule,
        seed=DIURNAL_SEED,
    )
    return specs, schedule, stream


def diurnal_policies(schedule, sla_s: float = DIURNAL_SLA_S):
    """The ablation's four routing policies, named.

    ``sla_s`` is the (scale-adjusted) response-time target; the
    consolidate/dynamic backlog caps and the adaptive deadline all
    derive from it so the policies face the same goal posts at any
    scale factor.
    """
    backlog = sla_s
    return [
        ("spread", RoundRobinRouter()),
        ("consolidate", ConsolidateRouter(max_backlog_s=backlog)),
        ("dynamic", DynamicConsolidateRouter(
            max_backlog_s=backlog, target_utilization=0.5,
            schedule=schedule,
        )),
        ("adaptive_pvc", AdaptivePvcRouter(deadline_s=sla_s)),
    ]


def _phase_of(rate: float, trough: float, crest: float) -> str:
    """Classify a window's scheduled rate into low / mid / peak,
    relative to the schedule's own trough/crest (the curve is rescaled
    per scale factor, so absolute thresholds would misclassify)."""
    span = crest - trough
    if rate < trough + span / 3.0:
        return "low"
    if rate > trough + 2.0 * span / 3.0:
        return "peak"
    return "mid"


def run_diurnal_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
    window_s: float = 20.0,
    horizon_s: float = DIURNAL_HORIZON_S,
) -> Ablation:
    """Static vs dynamic fleet policies under the diurnal profile.

    The gate: dynamic re-consolidation wins on energy while both it and
    static spread hold the same SLA-miss budget.  ``phase_energy``
    slices each policy's *modeled* energy into the schedule's
    low/mid/peak phases (``window_s`` windows, classified by the
    scheduled rate at their midpoint).
    """
    specs, schedule, stream = diurnal_scenario(scale_factor, horizon_s)
    # Service times grow ~linearly with SF; keep the SLA (and the
    # policies' derived knobs) constant in *service-time units*.
    sla_s = DIURNAL_SLA_S * _sf_scale(scale_factor, DIURNAL_REFERENCE_SF)
    policies: dict[str, dict] = {}
    phase_energy: dict[str, dict[str, float]] = {}
    for name, router in diurnal_policies(schedule, sla_s):
        measurement = ClusterSimulator(
            db, specs, router, trace_cache=trace_cache
        ).run(stream)
        policies[name] = {
            "run_id": measurement.run_id,
            "wall_joules": measurement.wall_joules,
            "edp": measurement.edp,
            "awake_node_s": measurement.awake_node_s,
            "re_sleeps": measurement.re_sleeps,
            "sla_misses": measurement.sla_violations(sla_s),
            "p95_response_s": measurement.p95_response_s,
            "served": measurement.served,
        }
        trough = schedule.rate_at(0.0)  # the sinusoid opens at its trough
        slices: dict[str, float] = {"low": 0.0, "mid": 0.0, "peak": 0.0}
        for window in measurement.window_report(window_s):
            mid = (window.start_s + window.end_s) / 2.0
            phase = _phase_of(schedule.rate_at(mid), trough,
                              schedule.peak_rate)
            slices[phase] += window.modeled_joules
        phase_energy[name] = slices

    return Ablation(
        "diurnal",
        config={
            "arrivals": len(stream),
            "horizon_s": schedule.horizon_s,
            "scale_factor": scale_factor,
            "sla_s": sla_s,
            "sla_budget": DIURNAL_SLA_BUDGET,
        },
        modes=policies,
        modes_key="policies",
        extras={"phase_energy": phase_energy},
    )


# -- QED ablation: master queue vs per-node queues vs no queueing ---------

#: Canonical QED scenario, shared by ``benchmarks/bench_ablation_qed.py``
#: and ``scripts/perf_report.py`` so both write comparable ``qed``
#: records.  A Poisson stream mixes two mergeable selection templates
#: with an occasional non-mergeable (ORDER BY + LIMIT) shape -- the
#: master queue partitions them, per-node queues hit the mixed-batch
#: fallback, and the no-QED baseline serves every arrival alone.
#: Interarrival times and the SLA rescale with the scale factor the
#: same way the diurnal scenario's rates do, keeping the offered load
#: (and therefore the three-way comparison) scale-invariant.
QED_REFERENCE_SF = 0.01
QED_NODES = 4
QED_ARRIVALS = 600
QED_DISTINCT = 20
QED_MEAN_INTERARRIVAL_S = 0.02
QED_THRESHOLD = 16
QED_MAX_WAIT_S = 0.4
QED_SEED = 11
QED_SLA_S = 1.5
#: Equal SLA-miss budget for every mode: 1% of arrivals.
QED_SLA_BUDGET = 0.01
#: Every ALT-th arrival uses the second mergeable template, every
#: ODD-th the pass-through shape.  The mix keeps per-node batches
#: *mostly* clean (the fallback cost shows without erasing per-node
#: QED's win over no QED) while the master queue, which partitions,
#: never falls back at all.
QED_ALT_EVERY = 17
QED_ODD_EVERY = 67


def qed_alt_query(quantity: int) -> str:
    """Second mergeable template (different select list)."""
    return (f"SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"WHERE l_quantity = {quantity}")


def qed_odd_query(quantity: int) -> str:
    """Non-mergeable shape: pass-through partition / node fallback."""
    return (f"SELECT l_orderkey FROM lineitem WHERE l_quantity = "
            f"{quantity} ORDER BY l_orderkey LIMIT 5")


def qed_ablation_stream(sf: float | None = None,
                        arrivals: int = QED_ARRIVALS):
    """The canonical mixed-template arrival stream.

    CI smoke runs pass fewer ``arrivals``; ``sf`` rescales interarrival
    times so the offered load matches the reference calibration at any
    scale factor.
    """
    base = selection_workload(QED_DISTINCT).queries
    queries = []
    for i in range(arrivals):
        if i % QED_ODD_EVERY == QED_ODD_EVERY - 1:
            queries.append(qed_odd_query(
                QED_DISTINCT + 1 + i % 3
            ))
        elif i % QED_ALT_EVERY == QED_ALT_EVERY - 1:
            queries.append(qed_alt_query(
                QED_DISTINCT + 1 + i % 5
            ))
        else:
            queries.append(base[i % QED_DISTINCT])
    return poisson_arrivals(
        queries,
        QED_MEAN_INTERARRIVAL_S * _sf_scale(sf, QED_REFERENCE_SF),
        seed=QED_SEED,
    )


def run_qed_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
    arrivals: int = QED_ARRIVALS,
) -> Ablation:
    """Master-queue QED vs per-node QED vs no QED on one stream.

    The acceptance ordering is the paper's deployment claim: fleet-wide
    batching on the always-on master merges more queries per execution
    than per-node queues fed by a load balancer, which in turn beat
    serving every arrival alone -- all while holding the same SLA-miss
    budget.
    """
    stream = qed_ablation_stream(scale_factor, arrivals)
    scale = _sf_scale(scale_factor, QED_REFERENCE_SF)
    sla_s = QED_SLA_S * scale
    max_wait = QED_MAX_WAIT_S * scale
    policy = BatchPolicy(QED_THRESHOLD, max_wait_s=max_wait)

    def scenario(name: str):
        # The off/node baselines route round-robin -- the canonical
        # load balancer for queued workers, and *favorable* to node
        # mode: per-node queues hide backlog from completion-time
        # routing, so a least-loaded router funnels every arrival into
        # one node's queue (measured: big but almost-always-mixed
        # batches, worse than no QED at all).  Master mode's router is
        # idle (the placement policy picks nodes), so the gated gap
        # measures where the queue lives, not the router choice.
        if name == "off":
            return uniform_fleet(QED_NODES), RoundRobinRouter(), None
        if name == "node":
            return (
                uniform_fleet(QED_NODES, queue_policy=policy),
                RoundRobinRouter(), None,
            )
        return (
            uniform_fleet(QED_NODES), LeastLoadedRouter(),
            MasterQueue(policy),
        )

    modes: dict[str, dict] = {}
    for name in ("off", "node", "master"):
        specs, router, master_queue = scenario(name)
        sim = ClusterSimulator(db, specs, router,
                               trace_cache=trace_cache,
                               master_queue=master_queue)
        m = sim.run(stream)
        modes[name] = _mode_stats(m, sla_s)
        if m.qed is not None:
            modes[name].update({
                "qed_batches": m.qed.batches,
                "qed_mean_batch_size": m.qed.mean_batch_size,
                "qed_merged_windows": m.qed.merged_windows,
                "qed_singleton_windows": m.qed.singleton_windows,
                "qed_fallback_batches": m.qed.fallback_batches,
            })

    return Ablation("qed", modes=modes, config={
        "arrivals": len(stream),
        "nodes": QED_NODES,
        "scale_factor": scale_factor,
        "sla_s": sla_s,
        "sla_budget": QED_SLA_BUDGET,
        "threshold": QED_THRESHOLD,
        "max_wait_s": max_wait,
    })


# -- fault ablation: consolidate-with-recovery vs always-awake spread ------

#: Canonical fault-recovery scenario, shared by
#: ``benchmarks/bench_fault_recovery.py`` and ``scripts/perf_report.py``
#: so both write comparable ``faults`` records.  The plan exercises
#: every fault kind the layer models: a straggler window inflates the
#: hot node's service times, a crash then kills it mid-batch (its
#: in-flight work requeues through the retry policy), the obvious
#: replacement refuses to wake while the crash is fresh, and a
#: transient-unavailability window keeps a fourth node out of the
#: routing pool.  Times are in stream seconds at the reference scale
#: factor; :func:`fault_plan` rescales them with SF exactly like the
#: stream's interarrival times, so the faults keep striking the same
#: phase of the run at any scale.
FAULT_REFERENCE_SF = 0.01
FAULT_NODES = 4
FAULT_ARRIVALS = 300
FAULT_DISTINCT = 20
FAULT_MEAN_INTERARRIVAL_S = 0.1
FAULT_SEED = 13
FAULT_PLAN_SEED = 29
FAULT_SLA_S = 1.5
#: Equal SLA-miss budget for both modes: 1% of arrivals.
FAULT_SLA_BUDGET = 0.01
FAULT_WAKE_LATENCY_S = 0.5
FAULT_RETRY_MAX = 4
FAULT_RETRY_BACKOFF_S = 0.05
FAULT_STRAGGLER_START_S = 2.0
FAULT_STRAGGLER_END_S = 3.0
FAULT_STRAGGLER_SLOWDOWN = 4.0
FAULT_CRASH_AT_S = 2.5
FAULT_RECOVER_AT_S = 4.0
FAULT_WAKE_FAIL_END_S = 3.5
FAULT_UNAVAILABLE_S = (0.5, 1.5)


def fault_plan(sf: float | None = None):
    """The canonical fault plan, time-rescaled to ``sf``."""
    scale = _sf_scale(sf, FAULT_REFERENCE_SF)
    return FaultPlan([
        FaultSpec("straggler", "node00",
                  start_s=FAULT_STRAGGLER_START_S * scale,
                  end_s=FAULT_STRAGGLER_END_S * scale,
                  slowdown=FAULT_STRAGGLER_SLOWDOWN),
        FaultSpec("crash", "node00",
                  at_s=FAULT_CRASH_AT_S * scale,
                  recover_s=FAULT_RECOVER_AT_S * scale),
        FaultSpec("wake-failure", "node01",
                  start_s=0.0, end_s=FAULT_WAKE_FAIL_END_S * scale,
                  probability=1.0),
        FaultSpec("unavailable", "node03",
                  start_s=FAULT_UNAVAILABLE_S[0] * scale,
                  end_s=FAULT_UNAVAILABLE_S[1] * scale),
    ], seed=FAULT_PLAN_SEED)


def fault_ablation_stream(sf: float | None = None,
                          arrivals: int = FAULT_ARRIVALS) -> ArrivalStream:
    """The canonical Poisson stream the faults strike.

    CI smoke runs pass fewer ``arrivals`` (keep the stream long enough
    to outlive the crash); ``sf`` rescales interarrival times so the
    offered load matches the reference calibration.
    """
    return _cyclic_poisson_stream(
        arrivals, FAULT_DISTINCT,
        FAULT_MEAN_INTERARRIVAL_S * _sf_scale(sf, FAULT_REFERENCE_SF),
        FAULT_SEED,
    )


def _run_recovery_ablation(
    section: str, db: Database, scale_factor: float | None,
    trace_cache: TraceCache | None, stream: ArrivalStream, plan,
    replicated: bool = False,
) -> Ablation:
    """The canonical 4-node fleet under ``plan(scale_factor)``, as
    always-awake ``spread`` and as ``consolidate`` with the recovery
    layer; ``replicated`` adds the canonical shard placement."""
    scale = _sf_scale(scale_factor, FAULT_REFERENCE_SF)
    sla_s = FAULT_SLA_S * scale
    retry = RetryPolicy(max_attempts=FAULT_RETRY_MAX,
                        backoff_s=FAULT_RETRY_BACKOFF_S * scale)
    specs = uniform_fleet(FAULT_NODES,
                          wake_latency_s=FAULT_WAKE_LATENCY_S * scale)
    placement = replication_placement(specs) if replicated else None
    routers = {
        "spread": RoundRobinRouter(),
        "consolidate": DynamicConsolidateRouter(
            max_backlog_s=sla_s, target_utilization=0.5
        ),
    }
    modes: dict[str, dict] = {}
    for name, router in routers.items():
        sim = ClusterSimulator(db, specs, router,
                               trace_cache=trace_cache,
                               faults=plan(scale_factor),
                               retry=retry, placement=placement)
        m = sim.run(stream)
        modes[name] = {
            **_mode_stats(m, sla_s),
            "awake_node_s": m.awake_node_s,
            "faults": m.faults.to_dict(),
            "sla_split": m.sla_split(sla_s),
            "conserved": conserved(m, stream),
        }
        if placement is not None:
            modes[name].update(_replica_health(sim, placement))
    return Ablation(section, modes=modes, config={
        "arrivals": len(stream),
        "nodes": FAULT_NODES,
        "scale_factor": scale_factor,
        "sla_s": sla_s,
        "sla_budget": FAULT_SLA_BUDGET,
        "retry_max": FAULT_RETRY_MAX,
        "retry_backoff_s": FAULT_RETRY_BACKOFF_S * scale,
    })


def run_fault_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
    arrivals: int = FAULT_ARRIVALS,
) -> Ablation:
    """Consolidate-with-recovery vs always-awake spread under faults.

    The acceptance claim: even while nodes crash mid-batch, refuse to
    wake, and straggle, energy-aware consolidation *with the recovery
    layer* still beats the always-awake spread baseline on energy at an
    equal SLA-miss budget -- and neither mode loses a query silently
    (every arrival is served or visibly dead-lettered).
    """
    ablation = _run_recovery_ablation(
        "faults", db, scale_factor, trace_cache,
        fault_ablation_stream(scale_factor, arrivals), fault_plan,
    )
    # The plan actually bit: a crash took in-flight work (the requeues
    # prove it was mid-batch) and a wake failed.
    f = ablation.modes["consolidate"]["faults"]
    ablation.extras["faults_active"] = (
        f["crashes"] >= 1
        and f["requeued"] >= 1
        and f["failed_wakes"] >= 1
    )
    return ablation


# -- replication ablation: placement + quorum consolidation under crash ----

#: Canonical replication-recovery scenario, shared by
#: ``benchmarks/bench_replication.py`` and ``scripts/perf_report.py``
#: so both write comparable ``replication`` records.  The fleet serves
#: :func:`fault_ablation_stream` from a hash-partitioned lineitem
#: (``REPL_SHARDS`` shards x ``REPL_REPLICAS`` replicas, chained
#: declustering) and the plan
#: strikes the same phase of the run as the canonical fault plan: a
#: straggler window inflates node00's service times, a crash then kills
#: it mid-batch -- taking a replica of every shard it held and
#: triggering re-replication copy traffic billed on both endpoints --
#: and a transient-unavailability window keeps node03 out of the pool
#: early on.  There is deliberately *no* wake-failure fault: the crash
#: must always find a wakeable source and destination, so the
#: restored-replication gate is deterministic.  Times are in stream
#: seconds at the reference SF and rescale exactly like the stream.
REPL_SHARDS = 4
REPL_REPLICAS = 2
REPL_QUORUM = 1
REPL_TABLE = "lineitem"


def replication_plan(sf: float | None = None):
    """The canonical replication fault plan, time-rescaled to ``sf``:
    the canonical fault plan minus its wake failure."""
    return FaultPlan(
        [spec for spec in fault_plan(sf).specs
         if spec.kind != "wake-failure"],
        seed=FAULT_PLAN_SEED,
    )


def replication_placement(specs):
    """The canonical placement map over a fleet's node names."""
    return generate_placement(
        specs, shards=REPL_SHARDS, replicas=REPL_REPLICAS,
        table=REPL_TABLE, quorum=REPL_QUORUM,
    )


def _replica_health(sim, placement) -> dict:
    """Live holders per shard at the end of ``sim``'s run: the fewest
    any shard has, and whether every shard is back at (or above) its
    replica target."""
    live_holders = {
        (tp.table, shard): sum(
            1 for node in sim.nodes
            if node.crashed_s is None
            and node.shards is not None
            and (tp.table, shard) in node.shards
        )
        for tp in placement.tables.values()
        for shard in range(tp.shards)
    }
    return {
        "min_live_holders": min(live_holders.values()),
        "restored": all(
            count >= placement.for_table(table).replicas
            for (table, _shard), count in live_holders.items()
        ),
    }


def run_replication_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
    arrivals: int = FAULT_ARRIVALS,
) -> Ablation:
    """Quorum-aware consolidation vs spread on a replicated fleet.

    The acceptance claim: with lineitem hash-partitioned into
    replicated shards, quorum-constrained consolidation still spends no
    more energy than the always-awake spread baseline at an equal
    SLA-miss budget -- *while a crash and its re-replication copy
    traffic are in flight* -- and replication is restored (every shard
    back to its replica target by the end of the run) without silently
    losing a query.
    """
    ablation = _run_recovery_ablation(
        "replication", db, scale_factor, trace_cache,
        fault_ablation_stream(scale_factor, arrivals), replication_plan,
        replicated=True,
    )
    ablation.config.update(
        shards=REPL_SHARDS, replicas=REPL_REPLICAS, quorum=REPL_QUORUM,
    )
    # The crash actually triggered shard copies in both modes.
    ablation.extras["re_replicated"] = all(
        stats["faults"]["re_replications"] >= 1
        for stats in ablation.modes.values()
    )
    return ablation
