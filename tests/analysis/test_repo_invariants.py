"""The analyzer against the real tree.

Three layers: the shipped sources must lint clean (so CI's analysis
substage stays green), seeded violations injected into the actual
hot-path modules must be caught (so the rules bite where it matters),
and the run-id fingerprint must survive hash randomization (the
invariant DET-SETORDER exists to protect)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.engine import Linter, SEVERITY_ERROR

REPO_ROOT = Path(__file__).resolve().parents[2]
SIMULATOR = REPO_ROOT / "src" / "repro" / "cluster" / "simulator.py"
TRACE_STORE = REPO_ROOT / "src" / "repro" / "hardware" / "trace_store.py"


def _ids(findings):
    return {f.rule_id for f in findings}


class TestRepoIsClean:
    def test_src_lints_with_zero_errors(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = Linter().lint_paths(["src"])
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        assert errors == [], "\n".join(f.render() for f in errors)

    def test_scripts_and_benchmarks_lint_with_zero_errors(
        self, monkeypatch,
    ):
        monkeypatch.chdir(REPO_ROOT)
        findings = Linter().lint_paths(
            ["scripts", "benchmarks", "examples"]
        )
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        assert errors == [], "\n".join(f.render() for f in errors)


    def test_findings_do_not_depend_on_the_working_directory(
        self, monkeypatch, tmp_path,
    ):
        """Scopes anchor on the repo root, not the cwd: an absolute
        path linted from elsewhere gets the same rules applied, so the
        justified ``noqa[FLOAT-EQ]`` in ``psu.py`` and ``tracer.py``
        still suppress something instead of reading as unused."""
        trees = ["src/repro/hardware", "src/repro/obs"]
        monkeypatch.chdir(REPO_ROOT)
        from_root = Linter().lint_paths(trees)
        assert from_root == []
        monkeypatch.chdir(tmp_path)
        assert Linter().lint_paths(
            [REPO_ROOT / tree for tree in trees]
        ) == from_root
        monkeypatch.chdir(REPO_ROOT / "src" / "repro")
        assert Linter().lint_paths(["hardware", "obs"]) == from_root


class TestSeededViolations:
    """Append a violation to the real module source and assert the
    matching rule fires -- the acceptance check for the CI lint gate."""

    def test_wallclock_in_simulator_is_caught(self):
        source = SIMULATOR.read_text() + textwrap.dedent("""\


            def _seeded_wallclock():
                import time
                return time.time()
        """)
        findings = Linter().lint_source(
            source, "src/repro/cluster/simulator.py"
        )
        assert "DET-WALLCLOCK" in _ids(findings)

    def test_unguarded_hook_in_simulator_is_caught(self):
        source = SIMULATOR.read_text() + textwrap.dedent("""\


            def _seeded_unguarded(tracer, metrics, t_s):
                tracer.instant("seed", "master", t_s)
                metrics.observe("seed", t_s)
        """)
        findings = Linter().lint_source(
            source, "src/repro/cluster/simulator.py"
        )
        obs = [f for f in findings if f.rule_id == "OBS-GUARD"]
        assert len(obs) == 2, [f.render() for f in findings]

    def test_out_of_lock_write_in_trace_store_is_caught(self):
        source = TRACE_STORE.read_text() + textwrap.dedent("""\


            def _seeded_unlocked_write(store, payload):
                with open(store.rows_path, "ab") as fh:
                    fh.write(payload)
        """)
        findings = Linter().lint_source(
            source, "src/repro/hardware/trace_store.py"
        )
        assert "LOCK-STORE" in _ids(findings)

    def test_pristine_sources_have_no_errors(self):
        linter = Linter()
        for path in (SIMULATOR, TRACE_STORE):
            display = path.relative_to(REPO_ROOT).as_posix()
            findings = linter.lint_source(path.read_text(), display)
            errors = [
                f for f in findings if f.severity == SEVERITY_ERROR
            ]
            assert errors == [], "\n".join(f.render() for f in errors)


RUN_ID_SNIPPET = """\
from repro.cluster.node import uniform_fleet
from repro.cluster.routing import RoundRobinRouter
from repro.obs.fingerprint import config_fingerprint, run_id_for
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload

queries = selection_workload(6).queries
stream = poisson_arrivals(
    [queries[i % 6] for i in range(30)], 0.05, seed=1
)
fp = config_fingerprint(
    uniform_fleet(4), RoundRobinRouter(), arrivals=stream,
    workload_class="selection", scale_factor=0.01,
)
print(run_id_for(fp))
"""


class TestRunIdDeterminism:
    def test_run_id_stable_across_hash_seeds(self):
        """Regression pin: the canonical fingerprint's run id must not
        depend on interpreter hash randomization (set/dict ordering)."""
        ids = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", RUN_ID_SNIPPET],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            ids.add(proc.stdout.strip())
        assert len(ids) == 1, ids
