"""One time-ordered event loop: every event fires at its own instant.

The loop scheduler merges the sorted arrival column with one
``(time, rank, seq)`` heap of metric samples, crashes/recoveries,
retries and QED timeouts.  Each stream below is built by hand so that
two events share an inter-arrival gap and their order decides the
outcome: an event that fired at the next arrival's step instead of its
own timestamp -- a QED batch that timed out at 0.10 s placed after a
0.15 s crash, a sample at 0.5 s reading a queue that emptied at
0.45 s -- changes the numbers pinned here.  ``TestTail`` pins the
stop rule past the last arrival: only a retry or a live timeout keeps
the run going.  The last row pins the tie-break at one instant:
sample < crash/recover < retry < expiry < arrival.
"""

import pytest

from repro.cluster import (
    ClusterSimulator,
    FaultPlan,
    FaultSpec,
    LeastLoadedRouter,
    MasterQueue,
    RetryPolicy,
    RoundRobinRouter,
    generate_placement,
    uniform_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.obs import MetricsRegistry
from repro.workloads.arrivals import Arrival
from repro.workloads.selection import selection_workload

Q1, Q2, Q3, Q4 = selection_workload(4).queries


def _by_sql(m):
    return {r.sql: r for r in m.responses}


class TestTimeoutBeforeLaterEvents:
    def test_master_timeout_lands_before_a_later_crash(self, mysql_db):
        """The batch that timed out at 0.10 s is running on node00 when
        node00 crashes at 0.15 s, so the crash requeues all of it."""
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2), LeastLoadedRouter(),
            master_queue=MasterQueue(BatchPolicy(10, max_wait_s=0.1)),
            faults=FaultPlan([FaultSpec("crash", "node00", at_s=0.15)]),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.05),
        )
        m = sim.run([Arrival(Q1, 0.0), Arrival(Q2, 0.0),
                     Arrival(Q3, 0.20)])
        assert m.faults.requeued == 2  # the whole timed-out batch
        assert m.faults.wasted_busy_s == pytest.approx(0.05)
        assert m.served == 3 and not m.shed
        for sql in (Q1, Q2):
            assert _by_sql(m)[sql].node == "node01"
            assert _by_sql(m)[sql].start_s >= 0.15 + 0.05

    def test_node_queue_timeout_lands_before_a_later_crash(self,
                                                          mysql_db):
        """Same with node00's own queue: the batch leaves the queue at
        0.10 s and is killed mid-run, not flushed unstarted."""
        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(2, queue_policy=BatchPolicy(10, max_wait_s=0.1)),
            LeastLoadedRouter(),
            faults=FaultPlan([FaultSpec("crash", "node00", at_s=0.15)]),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.05),
        )
        m = sim.run([Arrival(Q1, 0.0), Arrival(Q2, 0.0),
                     Arrival(Q3, 0.20)])
        assert m.faults.requeued == 2
        assert m.faults.wasted_busy_s == pytest.approx(0.05)
        node00 = m.qed.get("node:node00")
        assert (node00.batches, node00.max_batch) == (1, 2)
        assert m.served == 3 and not m.shed

    def test_retry_queues_behind_an_earlier_timeout(self, mysql_db):
        """q1 times out at 0.10 s; q2, refused at 0.05 s, retries at
        0.15 s and so runs after q1's batch, not before it."""
        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(1, queue_policy=BatchPolicy(10, max_wait_s=0.1)),
            RoundRobinRouter(),
            faults=FaultPlan([FaultSpec("unavailable", "node00",
                                        start_s=0.04, end_s=0.06)]),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.1),
        )
        m = sim.run([Arrival(Q1, 0.0), Arrival(Q2, 0.05),
                     Arrival(Q3, 0.20)])
        q1, q2 = _by_sql(m)[Q1], _by_sql(m)[Q2]
        assert m.faults.retries == 1
        assert q1.start_s == pytest.approx(0.1)
        assert q2.start_s == pytest.approx(q1.completion_s)

    def test_sample_reads_the_queue_after_an_earlier_timeout(self,
                                                             mysql_db):
        """The master timeout fires at 0.45 s, so the 0.5 s sample sees
        an empty queue."""
        registry = MetricsRegistry(window_s=0.5)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(2), LeastLoadedRouter(),
            master_queue=MasterQueue(BatchPolicy(10, max_wait_s=0.05)),
            metrics=registry,
        )
        sim.run([Arrival(Q1, 0.40), Arrival(Q2, 0.60)])
        sample = registry.samples[1]
        assert sample["t_s"] == 0.5
        assert sample["master_queue_depth"] == 0.0
        assert sample["qed_batches"] == 1.0


def _stale_timeout(mysql_db, mode, second_s, faults=None, metrics=None):
    """Q1 at 0 s and again at ``second_s`` fill a two-query batch, so
    it leaves by threshold and its 10 s timeout goes stale in the
    heap."""
    policy = BatchPolicy(2, max_wait_s=10.0)
    specs = uniform_fleet(3, queue_policy=policy if mode == "node" else None)
    sim = ClusterSimulator(
        mysql_db, specs, LeastLoadedRouter(),
        master_queue=MasterQueue(policy) if mode == "master" else None,
        faults=faults, retry=RetryPolicy() if faults else None,
        placement=generate_placement(specs, shards=3, replicas=2),
        metrics=metrics,
    )
    return sim.run([Arrival(Q1, 0.0), Arrival(Q1, second_s)])


class TestTail:
    @pytest.mark.parametrize("mode", ["master", "node"])
    def test_a_stale_timeout_keeps_no_crash_alive(self, mysql_db, mode):
        """The batch is done long before 5 s and the only event left is
        its stale 10 s timeout, so the 5 s crash is past all activity
        and never fires (nor re-replicates the dead node's shards)."""
        crash = FaultPlan([FaultSpec("crash", "node00", at_s=5.0)])
        m = _stale_timeout(mysql_db, mode, 0.0, crash)
        plain = _stale_timeout(mysql_db, mode, 0.0)
        assert m.horizon_s < 5.0
        assert (m.faults.crashes, m.faults.re_replications) == (0, 0)
        assert m.horizon_s == plain.horizon_s
        assert m.wall_joules == plain.wall_joules
        assert m.served == 2

    def test_a_stale_timeout_takes_no_sample(self, mysql_db):
        """The 0.25 s sample sees Q1 queued; the run ends before 0.5 s,
        so that sample is the last one and the gauges keep its depth."""
        registry = MetricsRegistry(window_s=0.25)
        m = _stale_timeout(mysql_db, "master", 0.3, metrics=registry)
        assert m.horizon_s < 0.5
        assert [s["t_s"] for s in registry.samples] == [0.0, 0.25]
        assert registry.samples[-1]["master_queue_depth"] == 1.0
        assert registry.to_dict()["gauges"]["master_queue_depth"] == 1.0

    def test_samples_past_a_dead_letter_are_dropped_whole(self, mysql_db):
        """q1 retries at 1 s and 3 s while its only node is unavailable,
        then dead-letters: the run never got past t = 0, and neither do
        its series nor its exported gauges."""
        registry = MetricsRegistry(window_s=0.5)
        sim = ClusterSimulator(
            mysql_db, uniform_fleet(1), RoundRobinRouter(),
            faults=FaultPlan([FaultSpec("unavailable", "node00",
                                        start_s=0.0, end_s=100.0)]),
            retry=RetryPolicy(max_attempts=2, backoff_s=1.0),
            metrics=registry,
        )
        m = sim.run([Arrival(Q1, 0.0)])
        assert m.horizon_s == 0.0
        assert m.faults.dead_lettered == 1
        exported = registry.to_dict()
        (sample,) = exported["samples"]
        assert sample["t_s"] == 0.0
        assert exported["gauges"] == {
            name: value for name, value in sample.items()
            if name in exported["gauges"]
        }
        assert exported["gauges"]["retry_backlog"] == 0.0


class TestOneInstant:
    def test_sample_crash_retry_expiry_arrival(self, mysql_db):
        """At t = 0.5 s a window boundary, node01's crash, q2's retry,
        q1's timeout and q3's arrival coincide, and fire in that
        order."""
        registry = MetricsRegistry(window_s=0.5)
        sim = ClusterSimulator(
            mysql_db,
            uniform_fleet(2, queue_policy=BatchPolicy(10, max_wait_s=0.4)),
            RoundRobinRouter(),
            faults=FaultPlan([
                FaultSpec("crash", "node01", at_s=0.5),
                FaultSpec("unavailable", "node00", start_s=0.35,
                          end_s=0.45),
                FaultSpec("unavailable", "node01", start_s=0.35,
                          end_s=0.45),
            ]),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.1),
            metrics=registry,
        )
        # q1 queues on node00 (expiry 0.1 + 0.4); q2 finds no node at
        # 0.4 and retries at 0.4 + 0.1; q3 arrives at 0.5.
        m = sim.run([Arrival(Q1, 0.1), Arrival(Q2, 0.4),
                     Arrival(Q3, 0.5)])
        q1, q2, q3 = (_by_sql(m)[sql] for sql in (Q1, Q2, Q3))
        # sample first: nothing at 0.5 has happened yet
        sample = registry.samples[1]
        assert sample["t_s"] == 0.5
        assert "crashes" not in sample and sample["awake_nodes"] == 2.0
        assert sample["retry_backlog"] == 1.0
        assert sample["queue_depth.node:node00"] == 1.0
        # crash before retry: the rotation's node01 is already down
        assert q2.node == "node00" and q2.start_s == 0.5
        # retry before expiry: q1's batch starts behind q2
        assert q1.node == "node00"
        assert q1.start_s == pytest.approx(q2.completion_s)
        # expiry before arrival: q3 opens a new batch, not q1's
        assert m.qed.get("node:node00").max_batch == 1
        assert q3.start_s >= 0.5 + 0.4
