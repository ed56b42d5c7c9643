"""Cluster simulation: arrival streams served across a simulated fleet.

The paper's *global* energy techniques made concrete: a discrete-event
simulator routes an :class:`~repro.workloads.arrivals.Arrival` stream
across nodes that each wrap a
:class:`~repro.hardware.system.SystemUnderTest` with its own PVC
setting (and optionally a per-node QED queue), under pluggable routing
policies -- spread, least-loaded, consolidate-with-sleep, *dynamic*
re-consolidation (EWMA-sized awake set that re-sleeps drained nodes
and pre-wakes ahead of scheduled peaks), adaptive per-node PVC
control, power-cap.  QED can instead run the paper's actual deployment
design: a :class:`MasterQueue` on the always-on coordinator partitions
the whole arrival stream by mergeable template and hands merged
batches to a :class:`BatchPlacement` policy (least-loaded,
consolidate-cooperating, or hash-split across nodes).  Fleets may be heterogeneous: node groups differ
in hardware profile, PVC setting, capacity, and sleep/wake
characteristics.  The hot path is batched compiled-trace playback:
every node's whole timeline plays as one stacked array operation per
distinct (hardware profile, setting) pair.
"""

from repro.cluster.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    load_fault_plan,
)
from repro.cluster.master_queue import (
    DispatchedBatch,
    MasterQueue,
    PASSTHROUGH,
)
from repro.cluster.measure import (
    ClusterMeasurement,
    FaultReport,
    NodeUsage,
    PhaseWindow,
    QedPartitionStats,
    QedReport,
    QueryResponse,
    ResponseColumns,
    ShedQuery,
)
from repro.cluster.placement import (
    PlacementMap,
    TablePlacement,
    generate_placement,
    load_placement,
)
from repro.cluster.node import (
    NodeGroup,
    NodeSpec,
    SUT_FACTORIES,
    SimulatedNode,
    hetero_fleet,
    uniform_fleet,
)
from repro.cluster.playback import (
    play_batched,
    play_columnar,
    playback_groups,
)
from repro.cluster.routing import (
    AdaptivePvcRouter,
    BatchPlacement,
    ConsolidatePlacement,
    ConsolidateRouter,
    Decision,
    DynamicConsolidateRouter,
    HashSplitPlacement,
    HashSplitRouter,
    LeastLoadedPlacement,
    LeastLoadedRouter,
    PowerCapRouter,
    RoundRobinRouter,
    Router,
)
from repro.cluster.simulator import (
    ClusterSchedule,
    ClusterSimulator,
    ColumnarSchedule,
)

__all__ = [
    "AdaptivePvcRouter",
    "BatchPlacement",
    "ClusterMeasurement",
    "ClusterSchedule",
    "ClusterSimulator",
    "ColumnarSchedule",
    "ConsolidatePlacement",
    "ConsolidateRouter",
    "Decision",
    "DispatchedBatch",
    "DynamicConsolidateRouter",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "HashSplitPlacement",
    "HashSplitRouter",
    "LeastLoadedPlacement",
    "LeastLoadedRouter",
    "MasterQueue",
    "NodeGroup",
    "NodeSpec",
    "NodeUsage",
    "PASSTHROUGH",
    "PhaseWindow",
    "PlacementMap",
    "PowerCapRouter",
    "QedPartitionStats",
    "QedReport",
    "QueryResponse",
    "ResponseColumns",
    "RetryPolicy",
    "RoundRobinRouter",
    "Router",
    "SUT_FACTORIES",
    "ShedQuery",
    "SimulatedNode",
    "TablePlacement",
    "generate_placement",
    "hetero_fleet",
    "load_fault_plan",
    "load_placement",
    "play_batched",
    "play_columnar",
    "playback_groups",
    "uniform_fleet",
]
