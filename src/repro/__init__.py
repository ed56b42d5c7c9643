"""ecoDB reproduction: energy-aware query processing (Lang & Patel, CIDR 2009).

The package reproduces the paper's two mechanisms for trading energy for
performance in a DBMS, on top of fully simulated substrates:

* **PVC** -- processor voltage/frequency control via FSB underclocking
  (:mod:`repro.core.pvc`) over a calibrated machine model
  (:mod:`repro.hardware`).
* **QED** -- explicit query delays with multi-query aggregation
  (:mod:`repro.core.qed`) over a from-scratch relational engine
  (:mod:`repro.db`) loaded with TPC-H-shaped data
  (:mod:`repro.workloads`).

Quickstart::

    import repro

    db = repro.tpch_database(0.05, repro.mysql_profile())
    sut = repro.default_system()
    runner = repro.WorkloadRunner(db, sut)
    sweep = repro.PvcSweep(runner, repro.q5_paper_workload())
    curve = sweep.run()
    for label, e, t, edp_delta in curve.rows():
        print(label, e, t, edp_delta)
"""

from repro.cluster import (
    ClusterMeasurement,
    ClusterSimulator,
    ConsolidateRouter,
    LeastLoadedRouter,
    MasterQueue,
    NodeSpec,
    PowerCapRouter,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.core.fleet import Fleet, Placement, ServerSpec, server_from_sut
from repro.core.metrics import OperatingPoint, RatioPoint, edp, iso_edp_curve
from repro.core.pvc.adaptive import AdaptiveController, AdaptiveOutcome
from repro.core.pvc.advisor import OperatingPointAdvisor, Sla
from repro.core.pvc.controller import PvcController
from repro.core.pvc.sweep import PvcSweep
from repro.core.qed.aggregator import MergedQuery, merge_queries
from repro.core.qed.analytical import QedModel
from repro.core.qed.executor import QedComparison, QedExecutor
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.provisioning import SleepingServerModel
from repro.core.qed.queue import QueryQueue
from repro.core.qed.splitter import split_result
from repro.core.theory import theoretical_edp_series
from repro.core.tradeoff import TradeoffCurve
from repro.db.engine import Database
from repro.db.plan.cost import (
    CostWeights,
    EDP_BALANCED,
    ENERGY_OPTIMAL,
    TIME_OPTIMAL,
)
from repro.db.plan.costing import PlanCoster, rank_plans
from repro.db.profiles import (
    EngineProfile,
    commercial_profile,
    mysql_profile,
    profile_by_name,
)
from repro.hardware.cpu import PvcSetting, STOCK_SETTING, VoltageDowngrade
from repro.hardware.profiles import (
    default_system,
    paper_sut,
    pvc_settings_grid,
)
from repro.hardware.system import SystemUnderTest
from repro.measurement.report import ComparisonTable
from repro.workloads.arrivals import (
    Arrival,
    ArrivalStream,
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads.client import ClientModel
from repro.workloads.runner import TraceCache, WorkloadRunner
from repro.workloads.selection import selection_query, selection_workload
from repro.workloads.tpch.generator import load_tpch, tpch_database
from repro.workloads.tpch.queries import (
    q1,
    q5,
    q5_paper_workload,
    q6,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveController",
    "AdaptiveOutcome",
    "Arrival",
    "ArrivalStream",
    "BatchPolicy",
    "ClusterMeasurement",
    "ClusterSimulator",
    "ConsolidateRouter",
    "CostWeights",
    "EDP_BALANCED",
    "ENERGY_OPTIMAL",
    "Fleet",
    "LeastLoadedRouter",
    "MasterQueue",
    "NodeSpec",
    "PlanCoster",
    "Placement",
    "PowerCapRouter",
    "RoundRobinRouter",
    "ServerSpec",
    "SleepingServerModel",
    "TIME_OPTIMAL",
    "TraceCache",
    "rank_plans",
    "server_from_sut",
    "ClientModel",
    "ComparisonTable",
    "Database",
    "EngineProfile",
    "MergedQuery",
    "OperatingPoint",
    "OperatingPointAdvisor",
    "PvcController",
    "PvcSetting",
    "PvcSweep",
    "QedComparison",
    "QedExecutor",
    "QedModel",
    "QueryQueue",
    "RatioPoint",
    "STOCK_SETTING",
    "Sla",
    "SystemUnderTest",
    "TradeoffCurve",
    "VoltageDowngrade",
    "WorkloadRunner",
    "bursty_arrivals",
    "commercial_profile",
    "default_system",
    "edp",
    "iso_edp_curve",
    "load_tpch",
    "merge_arrivals",
    "merge_queries",
    "mysql_profile",
    "poisson_arrivals",
    "paper_sut",
    "profile_by_name",
    "pvc_settings_grid",
    "q1",
    "q5",
    "q5_paper_workload",
    "q6",
    "selection_query",
    "selection_workload",
    "split_result",
    "theoretical_edp_series",
    "tpch_database",
    "uniform_arrivals",
    "uniform_fleet",
]
