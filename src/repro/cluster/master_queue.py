"""Master-node QED admission queue, partitioned by mergeable template.

The paper puts the admission queue on the always-on *master*, not on
the workers: every arrival in the stream queues centrally, batches form
fleet-wide, and the DBMS nodes sleep while queues fill.  This module is
that master: one :class:`MasterQueue` holds the whole arrival stream's
pending queries partitioned by **mergeable template** -- the exact
preconditions :func:`~repro.core.qed.aggregator.merge_queries` enforces
(same select list, same table, plain single-table selection with a
WHERE clause) -- so a dispatched batch is mergeable *by construction*.

Each partition runs its own
:class:`~repro.core.qed.queue.QueryQueue` under the shared
:class:`~repro.core.qed.policy.BatchPolicy` (threshold and/or timeout);
queries no partition can hold (unparseable text, joins, aggregates,
ORDER BY/LIMIT shapes) flow through the **pass-through partition**:
dispatched immediately as singletons, never waiting on a merge that
cannot happen.

Where a dispatched batch *runs* is a separate policy axis --
:class:`~repro.cluster.routing.BatchPlacement` (least-loaded awake
node, consolidate-aware placement that keeps a
:class:`~repro.cluster.routing.DynamicConsolidateRouter` sizing the
awake set, or hash-splitting one merged batch across nodes via
:attr:`~repro.core.qed.aggregator.MergedQuery.routing_column`).

Under an active :class:`~repro.cluster.faults.FaultPlan`, placement
policies skip crashed/unresponsive nodes and survive failed wakes; a
dispatch no node can take is not shed but requeued through the
simulator's :class:`~repro.cluster.faults.RetryPolicy`.

Under an active :class:`~repro.cluster.placement.PlacementMap`, the
simulator splits each dispatched batch by the shard set its queries'
predicates touch and narrows every placement call to the owning
replica sets, so merged batches never land on a node missing the data
they read (``ClusterSimulator._shard_groups``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.routing import BatchPlacement, LeastLoadedPlacement
from repro.core.qed.aggregator import PartitionKey, partition_key
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import Batch, QueryQueue, QueuedQuery

#: Label of the non-mergeable (singleton) partition in reports.
PASSTHROUGH = "passthrough"


@dataclass(frozen=True)
class DispatchedBatch:
    """One batch leaving the master queue, tagged with its partition."""

    partition: str
    mergeable: bool
    batch: Batch


def partition_label(key: PartitionKey) -> str:
    """Human-readable partition name: ``table[col, col, ...]``."""
    items, tables = key
    cols = ", ".join(item.to_sql() for item in items)
    return f"{tables[0].to_sql()}[{cols}]"


class MasterQueue:
    """Fleet-wide admission queue on the coordinator.

    Driven by explicit timestamps like the per-node
    :class:`~repro.core.qed.queue.QueryQueue` it is built from; the
    cluster event loop calls :meth:`expired` before each arrival (so
    per-partition timeouts fire *at their expiry*, not at the next
    arrival's clock), :meth:`submit` for the arrival itself, and
    :meth:`drain` once the stream ends.
    """

    def __init__(self, policy: BatchPolicy,
                 placement: BatchPlacement | None = None):
        self.policy = policy
        self.placement = (
            placement if placement is not None else LeastLoadedPlacement()
        )
        self.reset()

    def reset(self) -> None:
        """Fresh per-run state (pending queries, partition queues)."""
        self._queues: dict[PartitionKey, QueryQueue] = {}
        self._labels: dict[PartitionKey, str] = {}
        self._next_passthrough_id = 0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def partitions(self) -> list[str]:
        """Labels of the mergeable partitions seen so far this run."""
        return [self._labels[key] for key in self._queues]

    def depths(self) -> dict[str, int]:
        """Pending queries per mergeable partition, by label (the
        streaming-metrics queue-depth gauge)."""
        return {
            self._labels[key]: len(queue)
            for key, queue in self._queues.items()
        }

    # -- event-loop hooks -------------------------------------------------

    def submit(self, sql: str, now_s: float) -> list[DispatchedBatch]:
        """Enqueue one arrival; returns any batch its partition fires.

        Non-mergeable queries dispatch immediately as singletons -- a
        pass-through query never waits on a threshold it cannot help
        reach.
        """
        key = partition_key(sql)
        if key is None:
            query = QueuedQuery(sql, now_s, self._next_passthrough_id)
            self._next_passthrough_id += 1
            return [DispatchedBatch(
                PASSTHROUGH, False, Batch([query], dispatch_s=now_s),
            )]
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = QueryQueue(self.policy)
            self._labels[key] = partition_label(key)
        batch = queue.submit(sql, now_s)
        if batch is None:
            return []
        return [DispatchedBatch(self._labels[key], True, batch)]

    def expired(self, now_s: float) -> list[DispatchedBatch]:
        """Batches whose partition timeout fired at or before ``now_s``,
        dispatched *at their own expiry* (sorted by it), so sparse
        streams never charge an inter-arrival gap to a batch."""
        out: list[DispatchedBatch] = []
        for key, queue in self._queues.items():
            expiry = queue.expiry_s
            if expiry is None or expiry > now_s:
                continue
            batch = queue.flush(expiry)
            if batch is not None:
                out.append(DispatchedBatch(self._labels[key], True, batch))
        out.sort(key=lambda d: d.batch.dispatch_s)
        return out

    def drain(self, end_s: float) -> list[DispatchedBatch]:
        """Flush every trailing partial batch once arrivals end.

        A timeout partition fires at its own expiry (necessarily after
        ``end_s``: earlier expiries were dispatched by :meth:`expired`
        during the loop); threshold-only partitions flush at ``end_s``
        (:meth:`~repro.core.qed.queue.QueryQueue.drain`).
        """
        out: list[DispatchedBatch] = []
        for key, queue in self._queues.items():
            batch = queue.drain(end_s)
            if batch is not None:
                out.append(DispatchedBatch(self._labels[key], True, batch))
        out.sort(key=lambda d: d.batch.dispatch_s)
        return out
