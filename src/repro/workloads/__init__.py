"""Workloads: TPC-H generator/queries, QED selections, arrivals, runner."""

from repro.workloads.arrivals import (
    Arrival,
    ArrivalStream,
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads.client import ClientModel
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_query, selection_workload

__all__ = [
    "Arrival",
    "ArrivalStream",
    "ClientModel",
    "WorkloadRunner",
    "bursty_arrivals",
    "poisson_arrivals",
    "selection_query",
    "selection_workload",
    "uniform_arrivals",
]
