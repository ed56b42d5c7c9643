"""TPC-H substrate: schemas, generator, queries."""

from repro.workloads.tpch.generator import (
    generate_tpch,
    load_tpch,
    tpch_database,
)
from repro.workloads.tpch.queries import (
    q1,
    q5,
    q5_paper_workload,
    q6,
)

__all__ = [
    "generate_tpch",
    "load_tpch",
    "q1",
    "q5",
    "q5_paper_workload",
    "q6",
    "tpch_database",
]
