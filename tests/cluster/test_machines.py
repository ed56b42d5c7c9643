"""One machine per (hardware, PVC setting) pair.

The simulator costs everything run under a pair on that pair's one
``SystemUnderTest``: built on first use with the setting applied, and
never retuned afterwards.  Nodes of a pair share it.  Routers read a
statement's service time as a function of the node, under the setting
the node holds at the call, so a setting nobody pre-costed is costed on
demand.
"""

import pytest

from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    NodeGroup,
    RoundRobinRouter,
    generate_placement,
    hetero_fleet,
    uniform_fleet,
)
from repro.cluster.routing import (
    Decision,
    Router,
    completion_key,
    first_serviceable,
)
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.system import SystemUnderTest
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload

REL = 1e-9
ECO = PvcSetting(10, VoltageDowngrade.MEDIUM)
#: A setting on no ladder and no node spec.
OFF_LADDER = PvcSetting(7, VoltageDowngrade.SMALL)


def _stream(count=80, distinct=6, mean_s=0.01, seed=5):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _hetero_specs():
    return hetero_fleet([
        NodeGroup(2, prefix="big", hw="paper"),
        NodeGroup(2, prefix="eco", hw="paper-nogpu", setting=ECO),
    ])


def _adaptive(db):
    return ClusterSimulator(db, _hetero_specs(),
                            AdaptivePvcRouter(deadline_s=0.05))


def _consolidate_with_faults(db):
    specs = uniform_fleet(4)
    plan = FaultPlan([
        FaultSpec("crash", "node01", at_s=0.2, recover_s=0.6),
        FaultSpec("straggler", "node00", start_s=0.1, end_s=0.4,
                  slowdown=2.0),
    ])
    return ClusterSimulator(
        db, specs, DynamicConsolidateRouter(max_backlog_s=0.05),
        faults=plan,
        placement=generate_placement(specs, shards=4, replicas=2),
    )


def _vectorized(db):
    return ClusterSimulator(db, _hetero_specs(), RoundRobinRouter())


RUNS = {
    "adaptive": _adaptive,
    "consolidate_with_faults": _consolidate_with_faults,
    "vectorized": _vectorized,
}


class TestMachines:
    def test_one_machine_per_pair_shared_by_its_nodes(self, mysql_db):
        sim = _vectorized(mysql_db)
        pairs = {(n.spec.hw, n.spec.setting) for n in sim.nodes}
        assert len(sim.machines) == len(pairs) == 2
        for node in sim.nodes:
            sut = sim.machines[(node.spec.hw, node.spec.setting)]
            assert node.sut is sut
            assert sut.setting == node.spec.setting

    def test_each_ladder_pair_gets_one_machine(self, mysql_db):
        sim = _adaptive(mysql_db)
        sim.playback(sim.schedule(_stream()))
        assert set(sim.machines) == set(sim._cost_keys())
        for (_hw, setting), sut in sim.machines.items():
            assert sut.setting == setting

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_costing_never_retunes_a_machine(self, mysql_db, monkeypatch,
                                             run):
        sim = RUNS[run](mysql_db)
        built = set(map(id, sim.machines.values()))
        calls = []
        apply_setting = SystemUnderTest.apply_setting

        def counted(sut, setting):
            calls.append((sut, setting))
            apply_setting(sut, setting)

        monkeypatch.setattr(SystemUnderTest, "apply_setting", counted)
        schedule = sim.schedule(_stream())
        m = sim.playback(schedule)
        assert m.served > 0
        assert (schedule.engine == "vectorized") == (run == "vectorized")
        # The only calls left are the ones that build a machine for a
        # pair the run had not used yet (ladder rungs), once each.
        tuned = [id(sut) for sut, _ in calls]
        assert len(set(tuned)) == len(tuned)
        assert not built & set(tuned)
        machines = {id(sut): pair for pair, sut in sim.machines.items()}
        for sut, setting in calls:
            assert machines[id(sut)][1] == setting
        if run != "adaptive":
            assert calls == []

    def test_one_power_envelope_per_machine(self, mysql_db, monkeypatch):
        import repro.cluster.node as node_module

        derived = []
        server_from_sut = node_module.server_from_sut

        def counted(sut, *args):
            derived.append(sut)
            return server_from_sut(sut, *args)

        monkeypatch.setattr(node_module, "server_from_sut", counted)
        sim = ClusterSimulator(mysql_db, uniform_fleet(100),
                               RoundRobinRouter())
        m = sim.playback(sim.schedule(_stream()))
        assert m.served == 80 and m.peak_power_w > 0
        assert len(derived) == 1
        assert derived[0] is sim.machines[("paper", sim.nodes[0].spec.setting)]


class _Retune(Router):
    """Least-loaded, stepping every node it picks to ``OFF_LADDER``."""

    def route(self, sql, now_s, service, nodes):
        _, node = first_serviceable(
            sorted(nodes, key=completion_key(now_s, service)), now_s
        )
        if node is not None and node.setting != OFF_LADDER:
            node.set_setting(OFF_LADDER, now_s)
        return Decision(node, now_s)


class _RetuneOnLadder(_Retune):
    """The same router, naming its setting so the schedule pre-costs
    it."""

    ladder = [OFF_LADDER]


class TestServiceFromTheNode:
    def test_setting_off_the_ladder_is_costed_on_demand(self, mysql_db):
        stream = _stream(count=60, mean_s=0.005)
        runs = {}
        for router in (_Retune(), _RetuneOnLadder()):
            sim = ClusterSimulator(mysql_db, _hetero_specs(), router)
            runs[type(router)] = (sim, sim.run(stream))
        sim, on_demand = runs[_Retune]
        _, precosted = runs[_RetuneOnLadder]
        assert ("paper", OFF_LADDER) not in sim._cost_keys()
        assert ("paper", OFF_LADDER) in sim.machines
        assert on_demand.served == precosted.served == 60
        assert on_demand.horizon_s == pytest.approx(
            precosted.horizon_s, rel=REL
        )
        for a, b in zip(on_demand.nodes, precosted.nodes):
            assert a.queries == b.queries
            assert a.busy_s == pytest.approx(b.busy_s, rel=REL)
            assert a.wall_joules == pytest.approx(b.wall_joules, rel=REL)
