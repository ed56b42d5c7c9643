"""Shared benchmark fixtures.

Benchmarks run the paper's experiments at ``BENCH_SF`` (0.05 by
default -- override with ``REPRO_BENCH_SF``) and extrapolate absolute
magnitudes to the paper's scale factor where relevant; all *ratios* are
scale-invariant.  Each bench prints a paper-vs-measured
table via ``repro.measurement.report.ComparisonTable``; run with ``-s``
to see them.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.db.profiles import commercial_profile, mysql_profile
from repro.hardware.profiles import paper_sut
from repro.measurement import gates
from repro.workloads.runner import WorkloadRunner
from repro.workloads.tpch.generator import tpch_database
from repro.workloads.tpch.queries import Q5_TABLES

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.05"))


def _sizes(**names: tuple[str, type]) -> dict:
    """Keyword arguments from the ``REPRO_BENCH_<name>`` variables that
    are set; an unset one leaves the scenario at its canonical size."""
    return {
        keyword: cast(os.environ[f"REPRO_BENCH_{name}"])
        for keyword, (name, cast) in names.items()
        if f"REPRO_BENCH_{name}" in os.environ
    }


#: Scenario sizes per canonical scenario of
#: ``repro.measurement.ablations``, as keyword arguments: the CI smoke
#: run (``scripts/ci.sh``'s ``smoke()``) shrinks them.
SMOKE_SIZES = {
    "scaling": _sizes(nodes=("SCALING_NODES", int),
                      arrivals=("SCALING_COMPARE_ARRIVALS", int)),
    "diurnal": _sizes(horizon_s=("DIURNAL_HORIZON", float)),
    "qed": _sizes(arrivals=("QED_ARRIVALS", int)),
    "faults": _sizes(arrivals=("FAULT_ARRIVALS", int)),
    "replication": _sizes(arrivals=("REPLICATION_ARRIVALS", int)),
}

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
#: Below this scale factor (the CI smoke run) artifacts go to a scratch
#: path so smoke numbers never clobber the committed record.
ARTIFACT_MIN_SF = 0.05


def write_bench_artifact(updates: dict) -> Path:
    """Merge ``updates`` into the perf artifact (each bench owns its keys).

    Dict values merge one level deep, so two tests contributing to the
    same top-level record (e.g. ``cluster_scaling``'s playback and
    scheduler halves) extend it instead of clobbering each other.

    Writing is also where a bench's gates are enforced: once the record
    is on disk, every gate-table row whose key ``updates`` holds must
    pass (the benches assert only what is not a recorded gate).
    """
    out = (
        BENCH_JSON if BENCH_SF >= ARTIFACT_MIN_SF
        else Path(tempfile.gettempdir()) / "BENCH_perf_smoke.json"
    )
    record = json.loads(out.read_text()) if out.exists() else {}
    for key, value in updates.items():
        if isinstance(value, dict) and isinstance(record.get(key), dict):
            record[key].update(value)
        else:
            record[key] = value
    out.write_text(json.dumps(record, indent=2))
    failing = [
        f"{gate.key} = {value} violates {gate.describe()}"
        for gate, value, passed in gates.verdicts(updates)
        if value is not None and not passed
    ]
    assert not failing, "; ".join(failing)
    return out


@pytest.fixture(scope="session")
def bench_artifact():
    return write_bench_artifact


@pytest.fixture(scope="session")
def bench_sf() -> float:
    return BENCH_SF


@pytest.fixture(scope="session")
def smoke_sizes() -> dict[str, dict]:
    return SMOKE_SIZES


@pytest.fixture(scope="session")
def commercial_runner():
    """Warmed commercial-profile TPC-H database on the paper machine."""
    db = tpch_database(
        BENCH_SF, commercial_profile(BENCH_SF), seed=0, tables=Q5_TABLES
    )
    db.warm()
    return WorkloadRunner(db, paper_sut())


@pytest.fixture(scope="session")
def mysql_runner():
    """Memory-engine TPC-H database on the paper machine."""
    db = tpch_database(BENCH_SF, mysql_profile(), seed=0, tables=Q5_TABLES)
    return WorkloadRunner(db, paper_sut())


@pytest.fixture(scope="session")
def lineitem_runner():
    """Lineitem-only memory database for the QED experiments."""
    db = tpch_database(BENCH_SF, mysql_profile(), seed=0,
                       tables=["lineitem"])
    return WorkloadRunner(db, paper_sut())


@pytest.fixture(scope="session")
def bench_trace_cache():
    """Optional cross-process compiled-trace store.

    Point ``REPRO_TRACE_CACHE`` at a directory (the ``--trace-cache
    DIR`` hook; see also ``scripts/perf_report.py``) and repeated bench
    invocations load compiled traces from disk instead of re-executing
    the workload.  The namespace pins everything a trace depends on
    besides the SQL: engine, scale factor, generator seed.
    """
    path = os.environ.get("REPRO_TRACE_CACHE")
    if not path:
        return None
    from repro.workloads.runner import TraceCache

    return TraceCache.for_workload(path, "mysql", BENCH_SF, seed=0,
                                   tables=("lineitem",))
