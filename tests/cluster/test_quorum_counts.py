"""Per-shard awake counts and the indexed fault plan, against the scans
they replaced (``routing_oracle``), over drawn event sequences.

A drawn fleet under a drawn placement map and fault plan (unavailable
windows, wake failures) goes through a drawn sequence of wakes, sleeps,
crashes, recoveries and re-replication copies.  After every
event the counts-based quorum answers must equal the former fleet
scans, and the counts must equal a recount from the nodes.  The fault
plan's indexed hooks must answer as the filtered-list form does --
including the order of RNG draws for probabilistic wake failures, and
nodes the plan does not name.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import routing_oracle as oracle
from repro.cluster import (
    FaultPlan,
    FaultSpec,
    NodeSpec,
    PlacementMap,
    SimulatedNode,
    TablePlacement,
)
from repro.cluster.placement import QuorumCounts

NAMES = [f"node{i}" for i in range(5)]
#: A node no drawn plan names.
GHOST = "ghost"

ticks = st.integers(0, 40).map(lambda tick: tick * 0.25)
spans = st.sampled_from([None, 0.25, 1.0, 3.0])

tables = st.lists(
    st.fixed_dictionaries({
        "shards": st.integers(1, 3),
        "replicas": st.integers(1, 3),
        "quorum": st.integers(1, 3),
        "starts": st.lists(st.integers(0, 4), min_size=3, max_size=3),
    }),
    min_size=1, max_size=2,
)
windows = st.lists(
    st.tuples(st.integers(0, 4), ticks, spans), max_size=4,
)
events = st.lists(
    st.tuples(
        ticks,
        st.sampled_from(["wake", "sleep", "crash", "recover", "copy"]),
        st.integers(0, 4),
        st.integers(0, 5),
    ),
    min_size=1, max_size=30,
)
fleets = st.fixed_dictionaries({
    "nodes": st.integers(1, 5),
    "tables": tables,
    "awake": st.lists(st.booleans(), min_size=5, max_size=5),
    "unavailable": windows,
    "wake_failures": st.lists(
        st.tuples(st.integers(0, 4), ticks, spans,
                  st.sampled_from([0.5, 1.0])),
        max_size=3,
    ),
    "events": events,
})


def _window(kind, name, start_s, span_s, **extra):
    end_s = None if span_s is None else start_s + span_s
    return FaultSpec(kind, name, start_s=start_s, end_s=end_s, **extra)


def _build(config):
    names = NAMES[:config["nodes"]]
    n = len(names)
    placement = PlacementMap([
        TablePlacement(
            table=f"t{i}", column="k", shards=t["shards"],
            replicas=min(t["replicas"], n),
            quorum=min(t["quorum"], t["replicas"], n),
            replica_map=tuple(
                tuple(names[(start + j) % n]
                      for j in range(min(t["replicas"], n)))
                for start in t["starts"][:t["shards"]]
            ),
        )
        for i, t in enumerate(config["tables"])
    ])
    plan = FaultPlan(
        [_window("unavailable", names[j % n], at, span)
         for j, at, span in config["unavailable"]]
        + [_window("wake-failure", names[j % n], at, span, probability=p)
           for j, at, span, p in config["wake_failures"]],
        seed=5,
    )
    nodes = [
        SimulatedNode(NodeSpec(name, wake_latency_s=0.0), sut=None)
        for name in names
    ]
    for node, awake in zip(nodes, config["awake"]):
        node.faults = plan
        node.shards = set(placement.shards_of(node.spec.name))
        node.reset(awake=awake)
    return placement, nodes


def _keys(placement):
    return [
        (name, shard) for name in sorted(placement.tables)
        for shard in range(placement.tables[name].shards)
    ]


def _apply(event, nodes, placement, counts):
    t, kind, j, extra = event
    node = nodes[j % len(nodes)]
    if kind == "wake":
        node.wake(t)
    elif kind == "sleep":
        if node.awake and node.drained(t):
            node.sleep(t)
    elif kind == "crash":
        node.crash(t)
    elif kind == "recover":
        node.recover(t)
    else:  # a re-replication copy lands on the node
        keys = _keys(placement)
        key = keys[extra % len(keys)]
        if key not in node.shards:
            node.shards.add(key)
            counts.hold(node, key)


@settings(max_examples=400, derandomize=True, database=None)
@given(config=fleets)
def test_counts_answer_as_the_fleet_scans(config):
    placement, nodes = _build(config)
    counts = QuorumCounts(placement, nodes)
    keys = _keys(placement)
    for event in sorted(config["events"]):
        _apply(event, nodes, placement, counts)
        now_s = event[0]
        assert counts.awake == [
            sum(1 for n in nodes if n.awake and key in n.shards)
            for key in keys
        ]
        assert counts.wake_candidates(now_s) == \
            oracle.quorum_wake_candidates(placement, nodes, now_s)
        for node in nodes:
            assert counts.sleep_would_break(node, now_s) == \
                oracle.sleep_would_break_quorum(
                    placement, node, nodes, now_s
                ), (event, node.spec.name)


plans = st.lists(
    st.one_of(
        st.tuples(st.just("crash"), st.integers(0, 3), ticks, spans),
        st.tuples(st.just("unavailable"), st.integers(0, 3), ticks, spans),
        st.tuples(st.just("straggler"), st.integers(0, 3), ticks, spans,
                  st.sampled_from([1.5, 2.0, 3.0])),
        st.tuples(st.just("wake-failure"), st.integers(0, 3), ticks, spans,
                  st.sampled_from([0.25, 0.5, 1.0])),
    ),
    max_size=10,
)


def _spec(kind, j, at_s, span_s, *level):
    name = NAMES[j]
    if kind == "crash":
        recover = None if span_s is None else at_s + span_s
        return FaultSpec(kind, name, at_s=at_s, recover_s=recover)
    if kind == "straggler":
        return _window(kind, name, at_s, span_s, slowdown=level[0])
    if kind == "wake-failure":
        return _window(kind, name, at_s, span_s, probability=level[0])
    return _window(kind, name, at_s, span_s)


@settings(max_examples=300, derandomize=True, database=None)
@given(drawn=plans,
       calls=st.lists(st.tuples(st.integers(0, 4), ticks), max_size=30))
def test_indexed_plan_answers_as_the_filtered_lists(drawn, calls):
    specs = [_spec(*entry) for entry in drawn]
    new, old = FaultPlan(specs, seed=3), oracle.FilteredFaultPlan(specs,
                                                                  seed=3)
    named = NAMES[:4] + [GHOST]
    for name in named:
        assert new.crashes_for(name) == old.crashes_for(name)
    for j, t in calls:
        name = named[j]
        assert new.available(name, t) == old.available(name, t)
        assert new.slowdown(name, t) == old.slowdown(name, t)
        # one wake attempt each: the same outcome off the same draws
        assert new.wake_attempt(name, t) == old.wake_attempt(name, t)
    assert float(new._rng.uniform()) == float(old._rng.uniform())
