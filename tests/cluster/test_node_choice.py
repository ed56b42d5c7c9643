"""Every node choice against the walks it replaced, over drawn fleets.

Routers, batch placements and the re-replication endpoint choice all
pick through ``first_serviceable`` (the availability rule) and
``completion_key`` (the earliest-completion order).  ``routing_oracle``
keeps the eight walks they used to write out.  For drawn 1-6-node
fleets under a fault plan of crashes, unavailable windows and
wake-failure windows -- nodes starting asleep or awake, with drawn
backlogs -- the old and the new policy run on twin fleets (same plan,
same seed) through the same drawn ``(sql, now)`` sequence and must make
the same decisions, make the same ``wake()`` calls in the same order
(a wake-failure window draws the plan's RNG once per attempt) and end
in the same rotation and fault-RNG state.

Configurations are drawn as plain values, so a falsifying example
prints whole.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import routing_oracle as oracle
from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    HashSplitPlacement,
    HashSplitRouter,
    LeastLoadedPlacement,
    LeastLoadedRouter,
    NodeSpec,
    RoundRobinRouter,
    SimulatedNode,
)
from repro.cluster.routing import Router
from repro.core.qed.queue import Batch, QueuedQuery

SQLS = [f"SELECT * FROM t WHERE k = {k}" for k in range(4)]


class _Service(dict):
    """A statement's service times by node name -- how the former walks
    read them -- and callable on a node, as the current policies are
    handed them."""

    def __call__(self, node):
        return self[node.spec.name]


#: ``(new, old)`` factories per policy.
ROUTERS = {
    "round_robin": (RoundRobinRouter, oracle.RoundRobinRouter),
    "least_loaded": (LeastLoadedRouter, oracle.LeastLoadedRouter),
    "hash_split": (HashSplitRouter, oracle.HashSplitRouter),
    "consolidate": (
        lambda: ConsolidateRouter(max_backlog_s=0.05),
        lambda: oracle.ConsolidateRouter(max_backlog_s=0.05),
    ),
    "dynamic": (
        lambda: DynamicConsolidateRouter(max_backlog_s=0.05),
        lambda: oracle.DynamicConsolidateRouter(max_backlog_s=0.05),
    ),
    "adaptive_pvc": (
        lambda: AdaptivePvcRouter(deadline_s=0.05),
        lambda: oracle.AdaptivePvcRouter(deadline_s=0.05),
    ),
}
PLACEMENTS = {
    "least_loaded_placement": (LeastLoadedPlacement,
                               oracle.LeastLoadedPlacement),
    "hash_split_placement": (
        lambda: HashSplitPlacement(fanout=3),
        lambda: oracle.HashSplitPlacement(fanout=3),
    ),
}
POLICIES = sorted(ROUTERS) + sorted(PLACEMENTS) + ["copy_endpoint"]

#: A wake-failure level of "0" still draws the plan's RNG once per
#: attempt but never fails (the spec rejects an exact 0).
WAKE_LEVELS = (math.ulp(0.0), 0.5, 1.0)

ticks = st.integers(0, 30).map(lambda tick: tick * 0.01)
short = st.sampled_from([0.0, 0.01, 0.05])

faults = st.one_of(
    st.tuples(st.just("crash"), st.integers(0, 5), ticks,
              st.sampled_from([None, 0.03, 0.1])),
    st.tuples(st.just("unavailable"), st.integers(0, 5), ticks,
              st.sampled_from([None, 0.03, 0.1])),
    st.tuples(st.just("wake-failure"), st.integers(0, 5), ticks,
              st.sampled_from([None, 0.1, 0.3]),
              st.sampled_from(WAKE_LEVELS)),
)
configs = st.fixed_dictionaries({
    "policy": st.sampled_from(POLICIES),
    "nodes": st.lists(
        st.fixed_dictionaries({
            "awake": st.booleans(),
            "busy_until": ticks,
            "wake_latency_s": short,
            "capacity": st.sampled_from([0.5, 1.0, 2.0]),
            # Wake failures bite only where a walk meets a sleeper
            # inside the window, so every node may get an open-ended
            # one from early on, besides the drawn fault list's.
            "wake_failure": st.one_of(
                st.none(),
                st.tuples(ticks.filter(lambda t: t <= 0.1),
                          st.sampled_from(WAKE_LEVELS)),
            ),
        }),
        min_size=1, max_size=6,
    ),
    "service": st.lists(
        st.lists(st.sampled_from([0.01, 0.02, 0.04]),
                 min_size=6, max_size=6),
        min_size=len(SQLS), max_size=len(SQLS),
    ),
    "faults": st.lists(faults, max_size=6),
    "decisions": st.lists(
        st.tuples(ticks, st.integers(0, len(SQLS) - 1),
                  st.integers(1, 63), st.integers(1, 4)),
        min_size=1, max_size=25,
    ),
})


def _plan(config, names):
    specs = [
        FaultSpec("wake-failure", name, start_s=node["wake_failure"][0],
                  probability=node["wake_failure"][1])
        for name, node in zip(names, config["nodes"])
        if node["wake_failure"] is not None
    ]
    for kind, node, at_s, span_s, *level in config["faults"]:
        name = names[node % len(names)]
        end_s = None if span_s is None else at_s + span_s
        if kind == "crash":
            specs.append(FaultSpec(kind, name, at_s=at_s, recover_s=end_s))
        elif kind == "unavailable":
            specs.append(FaultSpec(kind, name, start_s=at_s, end_s=end_s))
        else:
            specs.append(FaultSpec(kind, name, start_s=at_s, end_s=end_s,
                                   probability=level[0]))
    return FaultPlan(specs, seed=11)


def _fleet(config):
    """A fresh fleet in the drawn start state, under its own plan."""
    specs = [
        NodeSpec(f"node{i:02d}", wake_latency_s=n["wake_latency_s"],
                 capacity=n["capacity"])
        for i, n in enumerate(config["nodes"])
    ]
    plan = _plan(config, [s.name for s in specs])
    nodes = [SimulatedNode(spec, sut=None) for spec in specs]
    for node in nodes:
        node.faults = plan
    return nodes, plan


def _start(nodes, config):
    for node, drawn in zip(nodes, config["nodes"]):
        node.reset(awake=drawn["awake"])
        node.busy_until = drawn["busy_until"]


def _fire_faults(nodes, plan, fired, now_s):
    """Apply every crash and recovery due by ``now_s``, in time order."""
    by_name = {node.spec.name: node for node in nodes}
    due = []
    for i, spec in enumerate(plan.specs):
        if spec.kind != "crash":
            continue
        due.append((spec.at_s, 1, i, "crash", spec.node))
        if spec.recover_s is not None:
            due.append((spec.recover_s, 0, i, "recover", spec.node))
    for at_s, _, i, kind, name in sorted(due):
        if at_s > now_s or (i, kind) in fired:
            continue
        fired.add((i, kind))
        if kind == "crash":
            by_name[name].crash(at_s)
        else:
            by_name[name].recover(at_s)


def _subset(nodes, bits):
    """The narrowed candidate list a placement map would hand over."""
    picked = [n for i, n in enumerate(nodes) if bits >> i & 1]
    return picked or nodes


def _former_copy_endpoint(pool, at_s):
    """The re-replication caller used to drop unserviceable candidates
    itself before the walk; the current walk skips them."""
    return oracle.copy_endpoint(
        [n for n in pool if n.can_serve(at_s)], at_s
    )


class _Twin:
    """One side of the twin run: a fleet plus one policy (``which`` 0:
    the current code, 1: the former walk)."""

    def __init__(self, config, which):
        self.config = config
        self.nodes, self.plan = _fleet(config)
        self.fired: set = set()
        policy = config["policy"]
        self.router = None
        self.placement = None
        if policy in ROUTERS:
            self.router = ROUTERS[policy][which]()
            self.router.prepare(self.nodes)
        elif policy in PLACEMENTS:
            self.placement = PLACEMENTS[policy][which]()
            self.placement.prepare(Router(), self.nodes)
        self.copy_endpoint = (
            ClusterSimulator._copy_endpoint, _former_copy_endpoint
        )[which]
        _start(self.nodes, config)

    def service(self, sql_i):
        row = self.config["service"][sql_i]
        return _Service(
            (n.spec.name, row[i]) for i, n in enumerate(self.nodes)
        )

    def decide(self, now_s, sql_i, bits, size, qid):
        """One decision; returns ``[(node name, dispatch_s, query ids)]``
        and assigns each chosen node its work."""
        _fire_faults(self.nodes, self.plan, self.fired, now_s)
        pool = _subset(self.nodes, bits)
        service = self.service(sql_i)
        sql = SQLS[sql_i]
        queries = [QueuedQuery(sql, now_s, qid + k) for k in range(size)]
        if self.router is not None:
            decision = self.router.route(sql, now_s, service, pool)
            picks = ([] if decision.node is None else
                     [(decision.node, decision.dispatch_s, queries[:1])])
        elif self.placement is not None:
            merged = SimpleNamespace(
                hash_routable=bool(bits & 1),
                routing_values=[f"v{q.query_id}" for q in queries],
            )
            placed = self.placement.place(
                Batch(queries, now_s), merged, now_s, service, pool
            )
            picks = [(node, now_s, shard) for node, shard in placed]
        else:
            node = self.copy_endpoint(pool, now_s)
            picks = [] if node is None else [(node, now_s, queries[:1])]
        for node, dispatch_s, shard in picks:
            node.assign(sql, dispatch_s,
                        service[node.spec.name] * len(shard),
                        tuple((q.sql, q.arrival_s) for q in shard))
        return [
            (node.spec.name, dispatch_s, [q.query_id for q in shard])
            for node, dispatch_s, shard in picks
        ]

    def state(self):
        return {
            "nodes": [
                (n.spec.name, n.wake_log, n.sleep_log, n.failed_wakes,
                 n.busy_until, n.setting)
                for n in self.nodes
            ],
            "next": getattr(self.router, "_next", None),
            "level": getattr(self.router, "_level", None),
            "rng": float(self.plan._rng.uniform()),
        }


@settings(max_examples=600, derandomize=True, database=None)
@given(config=configs)
def test_every_node_choice_matches_the_former_walks(config):
    new, old = _Twin(config, 0), _Twin(config, 1)
    qid = 0
    for now_s, sql_i, bits, size in sorted(config["decisions"]):
        got = new.decide(now_s, sql_i, bits, size, qid)
        want = old.decide(now_s, sql_i, bits, size, qid)
        assert got == want, (now_s, sql_i)
        qid += size
    assert new.state() == old.state()
