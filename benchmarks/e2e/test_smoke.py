"""Smoke test: ``run.py --smoke`` emits exactly what BENCHMARK.json names.

Collected by the tier-1 command (the repo sets no ``testpaths``).  Tiny
sizes, every stage once: nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (run,) = json.loads(out.read_text())["runs"]
    last_line = json.loads(done.stdout.splitlines()[-1])
    assert set(last_line) == set(run["workloads"])
    return run["workloads"]


def test_emits_exactly_the_declared_workloads_and_metrics(smoke_run):
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert len(set(declared)) == len(declared)
    assert list(smoke_run) == [w["name"] for w in SPEC["workloads"]]
    for name, result in smoke_run.items():
        assert NAME.fullmatch(name)
        assert list(result["metrics"]) == declared, name
        for metric, entry in result["metrics"].items():
            assert NAME.fullmatch(metric)
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))
        assert result["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(smoke_run):
    for name, result in smoke_run.items():
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (
                name, metric["name"],
            )


def test_counters_repeat_exactly_across_reps(smoke_run):
    for name, result in smoke_run.items():
        first, second = result["counter_reps"]
        assert first == second, name
        assert not any("counters" in p for p in result["problems"])


def test_fleet_workloads_conserve_arrivals_and_pick_their_engine(smoke_run):
    # paper_figures is excluded: its tolerances are calibrated for
    # SF >= 0.02 and the smoke run sits at SF 0.005.
    for name in ("fleet_vectorized", "fleet_featured", "fleet_traced"):
        assert smoke_run[name]["failed"] == 0, smoke_run[name]["problems"]
    vectorized = {
        name: smoke_run[name]["metrics"]["cluster.simulator.vectorized"]
        ["value"] for name in smoke_run
    }
    assert vectorized["fleet_vectorized"] == 1
    assert vectorized["fleet_featured"] == 0
    assert vectorized["fleet_traced"] == 0
