"""Vectorized event core: identity against the per-arrival oracle.

Covers the ISSUE-8 acceptance points: the chunked scheduler is a pure
re-expression of the per-arrival loop for every ``route_chunk`` router
(per-node energies, dispatch, peak power, and service quality agree to
<= 1e-9 on homogeneous *and* heterogeneous fleets), configurations the
fast path cannot express fall back to the loop under ``auto`` and fail
loudly under ``vectorized=True``, and empty arrival streams produce
well-formed zero measurements instead of crashing.  Over drawn inputs,
the grouped chunk sequencer equals the per-node mask loop it replaced
bit for bit, and the three reported response percentiles equal
``np.percentile`` exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_playback import loop_playback
from sequencing_oracle import sequence_chunk_by_masks
from window_oracle import response_columns
from repro.cluster import (
    ClusterSimulator,
    ConsolidateRouter,
    FaultPlan,
    FaultSpec,
    HashSplitRouter,
    LeastLoadedRouter,
    MasterQueue,
    NodeGroup,
    RoundRobinRouter,
    hetero_fleet,
    uniform_fleet,
)
from repro.cluster.measure import ClusterMeasurement, QueryResponse
from repro.cluster.routing import sequence_chunk_on_nodes
from repro.core.qed.policy import BatchPolicy
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.obs import MetricsRegistry, SpanTracer
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload

REL = 1e-9

ROUTERS = {
    "round_robin": RoundRobinRouter,
    "least_loaded": LeastLoadedRouter,
    "hash_split": HashSplitRouter,
}


def _stream(count=120, distinct=10, mean_s=0.02, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _hetero_specs():
    eco = PvcSetting(10, VoltageDowngrade.MEDIUM)
    return hetero_fleet([
        NodeGroup(2, prefix="big", hw="paper"),
        NodeGroup(2, prefix="eco", hw="paper-nogpu", setting=eco,
                  capacity=0.8, sleep_wall_w=2.0),
    ])


def assert_identical(fast, slow):
    """Vectorized and legacy measurements of one run must agree."""
    assert fast.served == slow.served
    assert fast.horizon_s == pytest.approx(slow.horizon_s, rel=REL)
    assert fast.peak_power_w == pytest.approx(slow.peak_power_w, rel=REL)
    assert fast.wall_joules == pytest.approx(slow.wall_joules, rel=REL)
    assert fast.cpu_joules == pytest.approx(slow.cpu_joules, rel=REL)
    assert fast.modeled_wall_joules == pytest.approx(
        slow.modeled_wall_joules, rel=REL
    )
    for f, s in zip(fast.nodes, slow.nodes):
        assert f.name == s.name
        assert f.queries == s.queries
        assert f.busy_s == pytest.approx(s.busy_s, rel=REL, abs=1e-12)
        assert f.wall_joules == pytest.approx(s.wall_joules, rel=REL)
        assert f.playback.duration_s == pytest.approx(
            s.playback.duration_s, rel=REL
        )
    for q in (0.5, 0.95, 0.99):
        assert fast.response_percentile(q) == pytest.approx(
            slow.response_percentile(q), rel=REL
        )
    assert fast.mean_response_s == pytest.approx(
        slow.mean_response_s, rel=REL
    )
    assert fast.sla_violations(0.5) == slow.sla_violations(0.5)


class TestIdentity:
    @pytest.mark.parametrize("policy", sorted(ROUTERS))
    def test_vectorized_matches_loop(self, mysql_db, policy):
        stream = _stream()
        fast = ClusterSimulator(
            mysql_db, uniform_fleet(4), ROUTERS[policy]()
        ).run(stream, vectorized=True)
        slow = ClusterSimulator(
            mysql_db, uniform_fleet(4), ROUTERS[policy]()
        ).run(stream, vectorized=False)
        assert_identical(fast, slow)

    @pytest.mark.parametrize("policy", sorted(ROUTERS))
    def test_identity_on_hetero_fleet(self, mysql_db, policy):
        stream = _stream(count=80, mean_s=0.01, seed=4)
        fast = ClusterSimulator(
            mysql_db, _hetero_specs(), ROUTERS[policy]()
        ).run(stream, vectorized=True)
        slow = ClusterSimulator(
            mysql_db, _hetero_specs(), ROUTERS[policy]()
        ).run(stream, vectorized=False)
        assert_identical(fast, slow)

    def test_identity_under_contention(self, mysql_db):
        """A hot stream (deep queues, back-to-back pieces) is where the
        closed-form sequencing recurrence has to match the loop."""
        stream = _stream(count=200, mean_s=0.001, seed=9)
        fast = ClusterSimulator(
            mysql_db, uniform_fleet(2), LeastLoadedRouter()
        ).run(stream, vectorized=True)
        slow = ClusterSimulator(
            mysql_db, uniform_fleet(2), LeastLoadedRouter()
        ).run(stream, vectorized=False)
        assert_identical(fast, slow)

    def test_window_report_identity(self, mysql_db):
        stream = _stream(count=100, mean_s=0.01, seed=2)
        fast = ClusterSimulator(
            mysql_db, uniform_fleet(3), RoundRobinRouter()
        ).run(stream, vectorized=True)
        slow = ClusterSimulator(
            mysql_db, uniform_fleet(3), RoundRobinRouter()
        ).run(stream, vectorized=False)
        fw, sw = fast.window_report(0.25), slow.window_report(0.25)
        assert len(fw) == len(sw)
        for a, b in zip(fw, sw):
            # The last window's end is the horizon, where closed-form
            # cumsum and sequential addition may differ by one ulp.
            assert a.start_s == pytest.approx(b.start_s, rel=REL)
            assert a.end_s == pytest.approx(b.end_s, rel=REL)
            assert a.arrivals == b.arrivals
            assert a.served == b.served
            assert a.modeled_joules == pytest.approx(
                b.modeled_joules, rel=REL
            )
            assert a.p95_response_s == pytest.approx(
                b.p95_response_s, rel=REL, abs=1e-12
            )

    def test_auto_uses_fast_path_when_eligible(self, mysql_db):
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               RoundRobinRouter())
        assert sim.vectorized_ineligibility() is None
        schedule = sim.schedule(_stream(count=20))
        assert schedule.engine == "vectorized"

    def test_run_ids_agree_across_paths(self, mysql_db):
        stream = _stream(count=30)
        fast = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(stream, vectorized=True)
        slow = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(stream, vectorized=False)
        assert fast.run_id == slow.run_id


class TestFallbackAndErrors:
    def _ineligible_sims(self, mysql_db):
        batch = BatchPolicy(4, max_wait_s=0.2)
        return {
            "master QED": ClusterSimulator(
                mysql_db, uniform_fleet(2), RoundRobinRouter(),
                master_queue=MasterQueue(batch),
            ),
            "per-node QED": ClusterSimulator(
                mysql_db, uniform_fleet(2, queue_policy=batch),
                RoundRobinRouter(),
            ),
            "fault plan": ClusterSimulator(
                mysql_db, uniform_fleet(2), RoundRobinRouter(),
                faults=FaultPlan(
                    [FaultSpec("crash", "node00", at_s=0.5)]
                ),
            ),
            "span tracing": ClusterSimulator(
                mysql_db, uniform_fleet(2), RoundRobinRouter(),
                tracer=SpanTracer(),
            ),
            "streaming metrics": ClusterSimulator(
                mysql_db, uniform_fleet(2), RoundRobinRouter(),
                metrics=MetricsRegistry(window_s=0.5),
            ),
            "route_chunk": ClusterSimulator(
                mysql_db, uniform_fleet(2),
                ConsolidateRouter(max_backlog_s=0.2),
            ),
        }

    def test_ineligible_configs_name_their_reason(self, mysql_db):
        for fragment, sim in self._ineligible_sims(mysql_db).items():
            reason = sim.vectorized_ineligibility()
            assert reason is not None
            assert fragment.split()[-1] in reason, (fragment, reason)

    def test_forcing_vectorized_raises_with_reason(self, mysql_db):
        for fragment, sim in self._ineligible_sims(mysql_db).items():
            with pytest.raises(ValueError, match="vectorized"):
                sim.schedule(_stream(count=10), vectorized=True)

    def test_auto_falls_back_to_loop(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2),
            ConsolidateRouter(max_backlog_s=0.2),
        )
        schedule = sim.schedule(_stream(count=20))
        assert schedule.engine == "loop"

    def test_empty_fault_plan_stays_eligible(self, mysql_db):
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=FaultPlan(),
        )
        assert sim.vectorized_ineligibility() is None

    def test_run_loop_mode_implies_legacy_schedule(self, mysql_db):
        """The legacy schedule played by the per-query oracle loop is
        the vectorized run."""
        stream = _stream(count=40)
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               RoundRobinRouter())
        loop = loop_playback(sim, sim.schedule(stream, vectorized=False))
        batched = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(stream, vectorized=True)
        assert_identical(batched, loop)


class TestEmptyStream:
    @pytest.mark.parametrize("vectorized", [None, False, True])
    def test_empty_stream_is_a_well_formed_run(self, mysql_db,
                                               vectorized):
        sim = ClusterSimulator(mysql_db, uniform_fleet(3),
                               RoundRobinRouter())
        m = sim.run([], vectorized=vectorized)
        assert m.served == 0
        assert m.horizon_s == 0.0
        assert m.wall_joules == 0.0
        # The fleet is awake over a zero-length horizon, so peak power
        # is the idle baseline; it must agree across all three modes.
        baseline = ClusterSimulator(
            mysql_db, uniform_fleet(3), RoundRobinRouter()
        ).run([], vectorized=False).peak_power_w
        assert m.peak_power_w == baseline
        assert len(m.nodes) == 3
        assert all(n.queries == 0 for n in m.nodes)
        assert np.isnan(m.p95_response_s) or m.p95_response_s == 0.0
        windows = m.window_report(30.0)
        assert len(windows) == 1
        assert windows[0].arrivals == 0

    @pytest.mark.parametrize("policy", sorted(ROUTERS))
    def test_empty_stream_takes_the_named_engine(self, mysql_db, policy):
        """An empty stream is no reason to leave the vectorized engine,
        and both engines measure it as the same zero run."""
        runs = {}
        for vectorized in (None, False):
            sim = ClusterSimulator(mysql_db, uniform_fleet(3),
                                   ROUTERS[policy]())
            assert sim.vectorized_ineligibility() is None
            schedule = sim.schedule([], vectorized=vectorized)
            runs[schedule.engine] = sim.playback(schedule)
        fast, slow = runs["vectorized"], runs["loop"]
        assert fast.run_id == slow.run_id
        assert fast.horizon_s == slow.horizon_s == 0.0
        assert fast.shed == slow.shed == []
        assert fast.peak_power_w == slow.peak_power_w
        for f, s in zip(fast.nodes, slow.nodes):
            assert f.queries == s.queries == 0
            assert f.playback == s.playback

    def test_empty_stream_summary_renders(self, mysql_db):
        sim = ClusterSimulator(mysql_db, uniform_fleet(2),
                               LeastLoadedRouter())
        doc = sim.run([]).summary()
        assert doc["served"] == 0
        assert doc["wall_joules"] == 0.0
        assert doc["avg_power_w"] == 0.0


#: Arrival gaps in 10 ms ticks; a zero gap ties two arrivals.
gaps = st.integers(0, 3)
#: Zero services and ones long enough to queue behind each other.
services = st.sampled_from([0.0, 0.0, 0.004, 0.02, 0.3])

routed_chunks = st.fixed_dictionaries({
    "nodes": st.integers(1, 5),
    "busy_until": st.lists(st.sampled_from([0.0, 0.05, 1.0]),
                           min_size=5, max_size=5),
    "routing": st.sampled_from(["round_robin", "hash_skewed"]),
    # Each template's home node (hash-skewed routing): a few templates
    # over up to five nodes pile onto some nodes and leave others idle.
    "homes": st.lists(st.integers(0, 4), min_size=3, max_size=3),
    "chunks": st.lists(
        st.lists(st.tuples(gaps, st.integers(0, 2), services),
                 min_size=1, max_size=40),
        min_size=2, max_size=3,
    ),
})


class TestSequencing:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(case=routed_chunks)
    def test_grouped_pass_is_the_mask_loop_bit_for_bit(self, case):
        n = case["nodes"]
        grouped = [SimpleNamespace(busy_until=b)
                   for b in case["busy_until"][:n]]
        masked = [SimpleNamespace(busy_until=b)
                  for b in case["busy_until"][:n]]
        ticks, turn = 0, 0
        for chunk in case["chunks"]:
            gap, template, service = (np.array(c) for c in zip(*chunk))
            times = (ticks + np.cumsum(gap)) * 0.01
            ticks += int(gap.sum())
            if case["routing"] == "round_robin":
                node_idx = (turn + np.arange(len(chunk))) % n
                turn += len(chunk)
            else:
                node_idx = np.array(case["homes"])[template] % n
            got = sequence_chunk_on_nodes(times, service, node_idx,
                                          grouped)
            want = sequence_chunk_by_masks(times, service, node_idx,
                                           masked)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert [node.busy_until for node in grouped] == [
                node.busy_until for node in masked
            ]


#: (arrival, response) ticks; small ranges tie responses.
responses = st.sampled_from([0, 1, 2, 40]).flatmap(
    lambda size: st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 6)),
        min_size=size, max_size=size,
    )
)


class TestPercentiles:
    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(drawn=responses)
    def test_reported_percentiles_are_np_percentile(self, drawn):
        m = ClusterMeasurement(1.0, [], response_columns(*(
            QueryResponse("q", "n0", a * 0.1, a * 0.1, a * 0.1 + r * 0.07)
            for a, r in drawn
        )))
        c = m.response_columns
        values = c.completion_s - c.arrival_s
        doc = m.summary()
        for _ in range(2):
            for q, got in ((50.0, m.p50_response_s),
                           (95.0, m.p95_response_s),
                           (99.0, m.p99_response_s)):
                want = (float(np.percentile(values, q)) if drawn
                        else 0.0)
                assert got == m.response_percentile(q) == want
                assert doc[f"p{q:.0f}_response_s"] == want
