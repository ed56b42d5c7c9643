"""Playback against the piece-by-piece oracle, over drawn runs.

For every drawn configuration -- uniform or two-hardware-group fleets;
round-robin, least-loaded, hash-split, consolidate, dynamic and
adaptive-PVC routers; QED off, per node or on the master; a fault plan over all four
kinds; streams with tied timestamps and repeated statements -- three
things hold:

* every node's energy from ``ClusterSimulator.playback`` matches the
  oracle in ``loop_playback.py``, which replays the loop schedule's
  timeline one compiled-trace piece at a time, to <= 1e-9;
* the schedule table holds exactly the timeline's busy rows, node by
  node and in the order they ran;
* the timeline's rows are the oracle's pieces -- kind, label, setting
  and idle seconds bit for bit -- a traced run's rows are an untraced
  run's, and every node's playback equals the oracle's batched
  playback on all nine fields, exactly;
* every arrival's stream index is served or shed exactly once, and in
  a traced run every span naming a query hangs under that query's
  arrival span;
* where the configuration can take the vectorized engine -- every
  ``route_chunk`` router, unsorted input, with no placement map, a
  vacuous one or one that pins each statement to a shard's replicas --
  counting the table and playing the timeline cost the run alike and
  report the same response percentiles.

Configurations are drawn as plain values, so a falsifying example
prints whole.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_playback import play_batched, play_loop, timeline_pieces
from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    ConsolidatePlacement,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    HashSplitRouter,
    LeastLoadedRouter,
    MasterQueue,
    NodeGroup,
    RetryPolicy,
    RoundRobinRouter,
    generate_placement,
    hetero_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.db.profiles import mysql_profile
from repro.cluster.playback import IDLE_LABELS
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.trace import KIND_IDLE
from repro.obs import SpanTracer
from repro.workloads.arrivals import Arrival
from repro.workloads.selection import selection_workload
from repro.workloads.tpch.generator import tpch_database

REL = 1e-9

#: Two mergeable templates and one pass-through shape.
POOL = selection_workload(4).queries + [
    f"SELECT l_orderkey, l_extendedprice FROM lineitem "
    f"WHERE l_quantity = {q}" for q in (11, 12)
] + [
    "SELECT l_orderkey FROM lineitem WHERE l_quantity = 14 "
    "ORDER BY l_orderkey LIMIT 5"
]

ROUTERS = {
    "round_robin": RoundRobinRouter,
    "least_loaded": LeastLoadedRouter,
    "hash_split": HashSplitRouter,
    "consolidate": lambda: ConsolidateRouter(max_backlog_s=0.05),
    "dynamic": lambda: DynamicConsolidateRouter(max_backlog_s=0.05),
    "adaptive_pvc": lambda: AdaptivePvcRouter(deadline_s=0.05),
}
STATEFUL = {"consolidate", "dynamic", "adaptive_pvc"}
FAULT_KINDS = ("crash", "wake-failure", "straggler", "unavailable")


@pytest.fixture(scope="module")
def db():
    return tpch_database(0.005, mysql_profile(), seed=0,
                         tables=["lineitem"])


times = st.integers(0, 40).map(lambda tick: tick * 0.01)

faults = st.tuples(
    st.sampled_from(FAULT_KINDS), st.integers(0, 3), times,
    st.sampled_from([None, 0.05, 0.2]), st.sampled_from([0.5, 1.0]),
)



def configs(routers=tuple(sorted(ROUTERS)), qed=("off", "node", "master"),
            fault_lists=st.lists(faults, max_size=4),
            placements=st.just(("none", 0))):
    return st.fixed_dictionaries({
        "placement": placements,
        "nodes": st.integers(1, 4),
        "two_groups": st.booleans(),
        "router": st.sampled_from(routers),
        "qed": st.sampled_from(qed),
        "faults": fault_lists,
        "retry": st.tuples(st.integers(1, 3),
                           st.sampled_from([0.01, 0.1])),
        "arrivals": st.lists(
            st.tuples(times, st.integers(0, len(POOL) - 1)),
            min_size=1, max_size=30,
        ),
    })


def _fleet(config):
    queue = BatchPolicy(3, max_wait_s=0.05) if config["qed"] == "node" \
        else None
    n = config["nodes"]
    groups = [NodeGroup(n, prefix="a", wake_latency_s=0.05,
                        queue_policy=queue)]
    if config["two_groups"] and n > 1:
        groups = [
            NodeGroup(n - n // 2, prefix="a", wake_latency_s=0.05,
                      queue_policy=queue),
            NodeGroup(n // 2, prefix="b", hw="paper-nogpu",
                      setting=PvcSetting(10, VoltageDowngrade.MEDIUM),
                      sleep_wall_w=2.0, wake_latency_s=0.05,
                      queue_policy=queue),
        ]
    return hetero_fleet(groups)


def _fault_plan(config, names):
    specs = []
    for kind, node, at_s, span_s, level in config["faults"]:
        name = names[node % len(names)]
        end_s = None if span_s is None else at_s + span_s
        if kind == "crash":
            specs.append(FaultSpec(kind, name, at_s=at_s, recover_s=end_s))
        elif kind == "wake-failure":
            specs.append(FaultSpec(kind, name, start_s=at_s, end_s=end_s,
                                   probability=level))
        elif kind == "straggler":
            specs.append(FaultSpec(kind, name, start_s=at_s, end_s=end_s,
                                   slowdown=1.0 + 2.0 * level))
        else:
            specs.append(FaultSpec(kind, name, start_s=at_s, end_s=end_s))
    return FaultPlan(specs, seed=7)


def _simulator(db, config, tracer=None):
    specs = _fleet(config)
    master = None
    if config["qed"] == "master":
        master = MasterQueue(
            BatchPolicy(3, max_wait_s=0.05),
            placement=(ConsolidatePlacement()
                       if config["router"] in STATEFUL else None),
        )
    attempts, backoff_s = config["retry"]
    return ClusterSimulator(
        db, specs, ROUTERS[config["router"]](), master_queue=master,
        faults=_fault_plan(config, [s.name for s in specs]),
        retry=RetryPolicy(attempts, backoff_s), tracer=tracer,
        placement=_placement(config, specs),
    )


def _placement(config, specs):
    """No map; a vacuous one (every node holds every shard); or one
    sharded on ``l_quantity``, so each pool statement needs one shard
    and runs only on that shard's replicas."""
    kind, shards = config["placement"]
    if kind == "none":
        return None
    replicas = len(specs) if kind == "vacuous" else (len(specs) + 1) // 2
    return generate_placement(specs, shards, replicas, column="l_quantity")


def _stream(config):
    return [Arrival(POOL[i], t) for t, i in config["arrivals"]]


def _assert_nodes_agree(got, want):
    for a, b in zip(got, want):
        for field in ("wall_joules", "cpu_joules", "duration_s"):
            assert getattr(a, field) == pytest.approx(
                getattr(b, field), rel=REL, abs=1e-12
            ), field


def _assert_each_arrival_answered_once(m, n_arrivals):
    served = m.response_columns.query_idx
    if served is None:
        served = np.arange(m.served)
    shed = [q.query_idx for q in m.shed]
    assert sorted(served.tolist() + shed) == list(range(n_arrivals))


def _assert_spans_hang_under_their_arrival(tracer, schedule):
    """A span naming a statement hangs under an arrival of it, no
    later than itself; a window's served spans under the arrivals it
    answered, in order; shed and dead-letter spans under the shed
    queries' arrivals."""
    spans = list(tracer.spans)
    arrivals = [s.span_id for s in spans if s.name == "arrival"]
    assert len(arrivals) == len(schedule.arrivals)
    served: dict[int, list[int]] = {}
    for s in spans:
        if s.name == "arrival" or "sql" not in s.args:
            continue
        parent = spans[s.parent_id - 1]
        assert parent.name == "arrival"
        assert parent.args["sql"] == s.args["sql"]
        assert parent.start_s <= s.start_s
        if s.name == "served":
            served.setdefault(s.args["window"], []).append(s.parent_id)
    for node in schedule.nodes:
        windows = [s.span_id for s in spans if s.name == "playback"
                   and s.track == node.spec.name]
        assert [served.get(w, []) for w in windows] == [
            [arrivals[i] for i in work.queries] for work in node.scheduled
        ]
    assert sorted(s.parent_id for s in spans
                  if s.name in ("shed", "dead-letter")) == sorted(
        arrivals[q.query_idx] for q in schedule.shed
    )


def _loop_run(db, config):
    sim = _simulator(db, config)
    schedule = sim.schedule(_stream(config), vectorized=False)
    return schedule, sim.playback(schedule)


@settings(max_examples=60, derandomize=True, database=None,
          deadline=None)
@given(config=configs())
def test_playback_matches_the_piece_oracle(db, config):
    schedule, played = _loop_run(db, config)
    _assert_each_arrival_answered_once(played, len(config["arrivals"]))
    pieces_by_node, settings_by_node = timeline_pieces(schedule)
    oracle = play_loop(schedule.nodes, pieces_by_node,
                       schedule.workload_class, settings_by_node)
    _assert_nodes_agree(
        [usage.playback for usage in played.nodes],
        [oracle[node.spec.name] for node in schedule.nodes],
    )
    windows, timeline = schedule.windows, schedule.timeline
    for j in range(len(schedule.nodes)):
        rows = timeline.trace_idx[
            timeline.offsets[j]:timeline.offsets[j + 1]
        ]
        assert rows[rows >= 0].tolist() == (
            windows.trace_idx[windows.offsets[j]:windows.offsets[j + 1]]
            .tolist()
        )


def _timeline_rows(timeline):
    return (timeline.offsets.tolist(), timeline.trace_idx.tolist(),
            [s.hex() for s in timeline.idle_s.tolist()],
            timeline.label.tolist(),
            [timeline.settings[i] for i in timeline.setting_idx])


def _fields(m):
    return tuple(float(v).hex() for v in (
        m.duration_s, m.cpu_joules, m.memory_joules,
        m.disk_energy.joules_5v, m.disk_energy.joules_12v,
        m.board_joules, m.gpu_joules, m.fan_joules, m.wall_joules,
    ))


@settings(max_examples=100, derandomize=True, database=None,
          deadline=None)
@given(config=configs())
def test_timeline_rows_are_the_oracle_pieces_bit_for_bit(db, config):
    schedule, played = _loop_run(db, config)
    tracer = SpanTracer()
    traced = _simulator(db, config, tracer=tracer).schedule(_stream(config))
    assert traced.engine == "loop"
    _assert_spans_hang_under_their_arrival(tracer, traced)
    assert _timeline_rows(traced.timeline) == _timeline_rows(
        schedule.timeline
    )

    pieces_by_node, settings_by_node = timeline_pieces(schedule)
    batched = play_batched(schedule.nodes, pieces_by_node,
                           schedule.workload_class, settings_by_node)
    timeline, traces = schedule.timeline, list(schedule.table.values())
    for j, (node, usage) in enumerate(zip(schedule.nodes, played.nodes)):
        assert _fields(usage.playback) == _fields(batched[node.spec.name])
        lo, hi = timeline.offsets[j], timeline.offsets[j + 1]
        pieces = pieces_by_node[node.spec.name]
        assert hi - lo == len(pieces)
        for i, piece, setting in zip(range(lo, hi), pieces,
                                     settings_by_node[node.spec.name]):
            assert timeline.settings[timeline.setting_idx[i]] == setting
            code = timeline.trace_idx[i]
            if code >= 0:
                assert piece is traces[code]
                continue
            assert piece.kinds.tolist() == [KIND_IDLE]
            assert piece.labels == (IDLE_LABELS[timeline.label[i]],)
            assert float(timeline.idle_s[i]).hex() == (
                float(piece.seconds[0]).hex()
            )


@settings(max_examples=40, derandomize=True, database=None,
          deadline=None)
@given(config=configs(
    routers=("hash_split", "least_loaded", "round_robin"), qed=("off",),
    fault_lists=st.just([]),
    placements=st.tuples(
        st.sampled_from(["none", "vacuous", "constraining"]),
        st.integers(2, 4),
    ),
))
def test_eligible_runs_cost_alike_on_both_engines(db, config):
    sim = _simulator(db, config)
    assert sim.vectorized_ineligibility() is None
    fast = sim.run(_stream(config), vectorized=True)
    _, loop = _loop_run(db, config)
    for m in (fast, loop):
        _assert_each_arrival_answered_once(m, len(config["arrivals"]))
    assert fast.served == loop.served
    assert fast.horizon_s == pytest.approx(loop.horizon_s, rel=REL)
    for p in ("p50_response_s", "p95_response_s", "p99_response_s"):
        assert getattr(fast, p) == pytest.approx(getattr(loop, p), rel=REL)
    _assert_nodes_agree(
        [usage.playback for usage in fast.nodes],
        [usage.playback for usage in loop.nodes],
    )
