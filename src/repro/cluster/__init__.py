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
consolidate-cooperating, or hash-split across nodes).  Fleets may be
heterogeneous: node groups differ in hardware profile, PVC setting,
capacity, and sleep/wake characteristics.  Both scheduling engines
write one schedule table, a row per busy window.  Playback costs a
vectorized run by counting those windows against one measurement per
(hardware profile, setting, trace); a loop run gathers every node's
timeline rows into stacked traces and plays them as one array
operation per distinct (hardware profile, setting) pair.
"""

from repro.cluster.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    load_fault_plan,
)
from repro.cluster.master_queue import MasterQueue, PASSTHROUGH
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
    load_fleet,
    uniform_fleet,
)
from repro.cluster.playback import ScheduleTable, play_table, play_timeline
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
)

__all__ = [
    "AdaptivePvcRouter",
    "BatchPlacement",
    "ClusterMeasurement",
    "ClusterSchedule",
    "ClusterSimulator",
    "ConsolidatePlacement",
    "ConsolidateRouter",
    "Decision",
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
    "ScheduleTable",
    "ShedQuery",
    "SimulatedNode",
    "TablePlacement",
    "generate_placement",
    "hetero_fleet",
    "load_fault_plan",
    "load_fleet",
    "load_placement",
    "play_table",
    "play_timeline",
    "uniform_fleet",
]
