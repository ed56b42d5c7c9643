"""QED admission queue.

Queries arrive continuously and wait in the queue; the batch policy
decides when the accumulated batch is dispatched.  Per the paper, the
queue lives on an always-on master node, so queue wait time is *not*
counted against QED's response times -- time and energy accounting start
when the batch is sent to the DBMS.  The queue still tracks arrival and
dispatch timestamps so the analytical model can study the excluded
delays too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.qed.policy import BatchPolicy


@dataclass(frozen=True)
class QueuedQuery:
    """One queued query; ``query_id`` is the caller's name for it (the
    cluster simulator's: its arrival's index in the stream)."""

    sql: str
    arrival_s: float
    query_id: int

    def wait_at(self, now_s: float) -> float:
        return max(0.0, now_s - self.arrival_s)


@dataclass
class Batch:
    """A dispatched batch of queued queries."""

    queries: list[QueuedQuery]
    dispatch_s: float

    @property
    def size(self) -> int:
        return len(self.queries)

    @property
    def sqls(self) -> list[str]:
        return [q.sql for q in self.queries]


class QueryQueue:
    """Admission queue driven by explicit timestamps (simulated time)."""

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._pending: list[QueuedQuery] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def oldest_arrival_s(self) -> float | None:
        """Arrival time of the oldest queued query, without copying the
        pending list (peeked per arrival in the cluster event loop)."""
        return self._pending[0].arrival_s if self._pending else None

    @property
    def expiry_s(self) -> float | None:
        """When the policy's timeout fires on its own: the oldest queued
        query's arrival plus ``max_wait_s`` (None: no timeout configured
        or nothing queued).  Event loops dispatch *at* this instant so
        batch response times never absorb an inter-arrival gap."""
        if self.policy.max_wait_s is None:
            return None
        oldest = self.oldest_arrival_s
        if oldest is None:
            return None
        return oldest + self.policy.max_wait_s

    def submit(self, sql: str, now_s: float,
               query_id: int) -> Batch | None:
        """Enqueue query ``query_id``; returns a batch if the policy
        fires."""
        self._pending.append(QueuedQuery(sql, now_s, query_id))
        return self._maybe_dispatch(now_s)

    def flush(self, now_s: float) -> Batch | None:
        """Dispatch whatever is queued regardless of the policy."""
        if not self._pending:
            return None
        return self._dispatch(now_s)

    def drain(self, end_s: float) -> Batch | None:
        """Flush the trailing partial batch once a stream ends.

        A timeout policy would fire on its own at the queue's expiry
        (possibly after ``end_s``: the stream ending does not stop the
        clock); a threshold-only queue is drained at ``end_s`` itself.
        Shared by the per-node and master-queue event loops so the two
        drain semantics can never diverge.
        """
        if not self._pending:
            return None
        flush_at = self.expiry_s
        if flush_at is None or flush_at < end_s:
            flush_at = end_s
        return self._dispatch(flush_at)

    def _maybe_dispatch(self, now_s: float) -> Batch | None:
        if not self._pending:
            return None
        oldest_wait = self._pending[0].wait_at(now_s)
        if self.policy.should_dispatch(len(self._pending), oldest_wait):
            return self._dispatch(now_s)
        return None

    def _dispatch(self, now_s: float) -> Batch:
        batch = Batch(queries=self._pending, dispatch_s=now_s)
        self._pending = []
        return batch
