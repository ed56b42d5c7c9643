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
:class:`~repro.core.qed.policy.BatchPolicy` (threshold and/or timeout;
a timeout fires at its own expiry, as one event in the cluster event
loop's time-ordered heap, not at the next arrival); queries no
partition can hold (unparseable text, joins, aggregates,
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

from repro.cluster.routing import BatchPlacement, LeastLoadedPlacement
from repro.core.qed.aggregator import PartitionKey, partition_key
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue

#: Label of the non-mergeable (singleton) partition in reports.
PASSTHROUGH = "passthrough"

#: A statement code whose partition is not known yet this run.
_UNSEEN = object()


def partition_label(key: PartitionKey) -> str:
    """Human-readable partition name: ``table[col, col, ...]``."""
    items, tables = key
    cols = ", ".join(item.to_sql() for item in items)
    return f"{tables[0].to_sql()}[{cols}]"


class MasterQueue:
    """Fleet-wide admission queue on the coordinator.

    One :class:`~repro.core.qed.queue.QueryQueue` per mergeable
    partition, in ``queues`` by creation order.  The cluster event loop
    asks :meth:`partition` where each arrival queues and submits it to
    that queue itself, so a partition's timeout is one expiry event in
    the loop's time-ordered heap: it fires *at its expiry*, never at the
    next arrival's clock, and same-instant expiries fire in partition
    order.  A non-mergeable arrival has no partition: it leaves at once,
    as a singleton -- it never waits on a threshold it cannot help
    reach.

    An arrival's statement is its code in the run's ``distinct`` tuple
    (given to :meth:`reset`): each statement's template key is derived
    once per run, and its partition opens when it first arrives.
    """

    def __init__(self, policy: BatchPolicy,
                 placement: BatchPlacement | None = None):
        self.policy = policy
        self.placement = (
            placement if placement is not None else LeastLoadedPlacement()
        )
        self.reset(())

    def reset(self, distinct: tuple[str, ...]) -> None:
        """Fresh per-run state (pending queries, partition queues) for a
        stream of the statements ``distinct``."""
        self.queues: list[QueryQueue] = []
        self._labels: list[str] = []
        self._index: dict[PartitionKey, int] = {}
        self._keys = [partition_key(sql) for sql in distinct]
        self._by_code: list = [_UNSEEN] * len(distinct)

    def depths(self) -> dict[str, int]:
        """Pending queries per mergeable partition, by label (the
        streaming-metrics queue-depth gauge)."""
        return {
            label: len(queue)
            for label, queue in zip(self._labels, self.queues)
        }

    # -- event-loop hooks -------------------------------------------------

    def partition(self, code: int) -> int | None:
        """The index in ``queues`` of statement ``code``'s mergeable
        partition (opened on first sight), or None for a pass-through
        statement."""
        index = self._by_code[code]
        if index is _UNSEEN:
            key = self._keys[code]
            index = self._by_code[code] = (
                None if key is None
                else self._index.setdefault(key, len(self.queues))
            )
            if index == len(self.queues):  # a new template
                self.queues.append(QueryQueue(self.policy))
                self._labels.append(partition_label(key))
        return index

    def label(self, index: int | None) -> str:
        """Partition ``index``'s name in reports (None: pass-through)."""
        return PASSTHROUGH if index is None else self._labels[index]
