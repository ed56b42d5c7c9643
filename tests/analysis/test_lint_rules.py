"""Per-rule fixtures: each rule fires exactly once on its positive
fixture, stays silent on the guarded/clean variant, and round-trips
through a reasoned ``# repro: noqa[RULE-ID]: ...`` suppression."""

from __future__ import annotations

import pytest

from repro.analysis.engine import Linter
from repro.analysis.rules.determinism import (
    EnvRule,
    FloatEqRule,
    RngRule,
    SetOrderRule,
    WallClockRule,
)
from repro.analysis.rules.lock_store import LockStoreRule
from repro.analysis.rules.obs_guard import ObsGuardRule

FIXTURE_PATH = "src/repro/fixture.py"


def _lint(rule, source: str):
    linter = Linter(rules=[rule], respect_scopes=False)
    return linter.lint_source(source, FIXTURE_PATH)


WALLCLOCK_BAD = """\
import time


def stamp():
    return time.time()
"""

WALLCLOCK_OK = """\
def stamp(clock_s: float):
    return clock_s
"""

ENV_BAD = """\
import os


def arrivals():
    return int(os.environ.get("REPRO_BENCH_QED_ARRIVALS", 600))
"""

ENV_OK = """\
def arrivals(count: int = 600):
    return count
"""

RNG_BAD = """\
import numpy as np


def draw():
    return np.random.default_rng().integers(10)
"""

RNG_OK = """\
import numpy as np


def draw(seed: int):
    return np.random.default_rng(seed).integers(10)
"""

SETORDER_BAD = """\
def walk(items):
    seen = set(items)
    out = []
    for item in seen:
        out.append(item)
    return out
"""

SETORDER_OK = """\
def walk(items):
    seen = set(items)
    out = []
    for item in sorted(seen):
        out.append(item)
    return out
"""

OBSGUARD_BAD = """\
def step(tracer, t_s):
    tracer.instant("step", "master", t_s)
"""

OBSGUARD_OK = """\
def step(tracer, t_s):
    tracing = tracer.enabled
    if tracing:
        tracer.instant("step", "master", t_s)
"""

LOCKSTORE_BAD = """\
class Store:
    def __init__(self, rows_path):
        self.rows_path = rows_path

    def _writer_lock(self):
        return None

    def sneaky(self, row):
        with open(self.rows_path, "ab") as fh:
            fh.write(row)
"""

LOCKSTORE_OK = """\
class Store:
    def __init__(self, rows_path):
        self.rows_path = rows_path

    def _writer_lock(self):
        return None

    def put(self, row):
        with self._writer_lock():
            self._append(row)

    def _append(self, row):
        with open(self.rows_path, "ab") as fh:
            fh.write(row)
"""

FLOATEQ_BAD = """\
def same(total_j: float, expected_joules: float) -> bool:
    return total_j == expected_joules
"""

FLOATEQ_OK = """\
def same(total_j: float, expected_joules: float) -> bool:
    return abs(total_j - expected_joules) <= 1e-9
"""

CASES = [
    (WallClockRule, "DET-WALLCLOCK", WALLCLOCK_BAD, WALLCLOCK_OK),
    (EnvRule, "DET-ENV", ENV_BAD, ENV_OK),
    (RngRule, "DET-RNG", RNG_BAD, RNG_OK),
    (SetOrderRule, "DET-SETORDER", SETORDER_BAD, SETORDER_OK),
    (ObsGuardRule, "OBS-GUARD", OBSGUARD_BAD, OBSGUARD_OK),
    (LockStoreRule, "LOCK-STORE", LOCKSTORE_BAD, LOCKSTORE_OK),
    (FloatEqRule, "FLOAT-EQ", FLOATEQ_BAD, FLOATEQ_OK),
]

IDS = [case[1] for case in CASES]


@pytest.mark.parametrize("rule_cls,rule_id,bad,ok", CASES, ids=IDS)
class TestRuleFixtures:
    def test_fires_exactly_once(self, rule_cls, rule_id, bad, ok):
        findings = _lint(rule_cls(), bad)
        assert [f.rule_id for f in findings] == [rule_id]
        assert findings[0].path == FIXTURE_PATH
        assert findings[0].line >= 1

    def test_clean_variant_is_silent(self, rule_cls, rule_id, bad, ok):
        assert _lint(rule_cls(), ok) == []

    def test_noqa_suppresses_with_reason(self, rule_cls, rule_id, bad, ok):
        finding = _lint(rule_cls(), bad)[0]
        lines = bad.splitlines()
        idx = finding.line - 1
        lines[idx] += f"  # repro: noqa[{rule_id}]: fixture exception"
        assert _lint(rule_cls(), "\n".join(lines) + "\n") == []

    def test_noqa_for_other_rule_does_not_suppress(
        self, rule_cls, rule_id, bad, ok,
    ):
        finding = _lint(rule_cls(), bad)[0]
        lines = bad.splitlines()
        idx = finding.line - 1
        lines[idx] += "  # repro: noqa[NO-SUCH-RULE]: wrong id"
        findings = _lint(rule_cls(), "\n".join(lines) + "\n")
        assert rule_id in {f.rule_id for f in findings}


class TestWallClockScope:
    def test_perf_module_is_exempt(self):
        """No file under ``src/`` is exempt: a clock read in the
        ablation module is flagged like anywhere else."""
        assert WallClockRule.exclude == ()
        linter = Linter(rules=[WallClockRule()])
        findings = linter.lint_source(
            WALLCLOCK_BAD, "src/repro/measurement/ablations.py"
        )
        assert [f.rule_id for f in findings] == ["DET-WALLCLOCK"]

    def test_benchmarks_are_exempt(self):
        linter = Linter(rules=[WallClockRule()])
        findings = linter.lint_source(
            WALLCLOCK_BAD, "benchmarks/bench_cluster.py"
        )
        assert findings == []

    def test_from_import_is_flagged(self):
        src = "from time import perf_counter\n"
        findings = _lint(WallClockRule(), src)
        assert [f.rule_id for f in findings] == ["DET-WALLCLOCK"]


class TestEnvDetails:
    @pytest.mark.parametrize("source", [
        "import os\n\nDEBUG = os.getenv('REPRO_DEBUG')\n",
        "from os import environ\n",
    ])
    def test_getter_and_from_import_are_flagged(self, source):
        findings = _lint(EnvRule(), source)
        assert [f.rule_id for f in findings] == ["DET-ENV"]

    def test_benchmarks_and_scripts_are_exempt(self):
        linter = Linter(rules=[EnvRule()])
        for path in ("benchmarks/conftest.py", "scripts/perf_report.py"):
            assert linter.lint_source(ENV_BAD, path) == []


class TestRngDetails:
    def test_stdlib_random_import_is_flagged(self):
        findings = _lint(RngRule(), "import random\n")
        assert [f.rule_id for f in findings] == ["DET-RNG"]

    def test_legacy_numpy_global_is_flagged(self):
        src = (
            "import numpy as np\n\n\n"
            "def draw():\n"
            "    return np.random.rand(3)\n"
        )
        findings = _lint(RngRule(), src)
        assert [f.rule_id for f in findings] == ["DET-RNG"]


class TestObsGuardHelpers:
    HELPER_OK = """\
def _emit(tracer, t_s):
    tracer.instant("tick", "master", t_s)


def step(tracer, t_s):
    tracing = tracer.enabled
    if tracing:
        _emit(tracer, t_s)
"""

    HELPER_BAD = """\
def _emit(tracer, t_s):
    tracer.instant("tick", "master", t_s)


def step(tracer, t_s):
    _emit(tracer, t_s)
"""

    def test_helper_guarded_at_every_call_site_passes(self):
        assert _lint(ObsGuardRule(), self.HELPER_OK) == []

    def test_helper_with_unguarded_call_site_fires(self):
        findings = _lint(ObsGuardRule(), self.HELPER_BAD)
        assert [f.rule_id for f in findings] == ["OBS-GUARD"]

    def test_metrics_none_guard_passes(self):
        src = """\
def step(metrics, value):
    if metrics is not None:
        metrics.observe("tick", value)
"""
        assert _lint(ObsGuardRule(), src) == []
