"""Engine-level behavior: the noqa policy, output formats, and the
``python -m repro lint`` entry point's exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine import (
    Linter,
    NOQA_BLANKET_ID,
    NOQA_REASON_ID,
    NOQA_UNKNOWN_ID,
    NOQA_UNUSED_ID,
    PARSE_ID,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    render_json,
    rule_catalog,
)
from repro.analysis.rules.determinism import WallClockRule

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_PATH = "src/repro/fixture.py"

VIOLATION = """\
import time


def stamp():
    return time.time()
"""


def _lint(source: str, path: str = FIXTURE_PATH):
    linter = Linter(rules=[WallClockRule()], respect_scopes=False)
    return linter.lint_source(source, path)


def _ids(findings):
    return [f.rule_id for f in findings]


class TestNoqaPolicy:
    def test_blanket_noqa_is_an_error(self):
        src = VIOLATION.replace(
            "return time.time()",
            "return time.time()  # repro: noqa",
        )
        findings = _lint(src)
        assert NOQA_BLANKET_ID in _ids(findings)
        # A blanket noqa suppresses nothing: the violation survives.
        assert "DET-WALLCLOCK" in _ids(findings)

    def test_noqa_without_reason_is_an_error(self):
        src = VIOLATION.replace(
            "return time.time()",
            "return time.time()  # repro: noqa[DET-WALLCLOCK]",
        )
        findings = _lint(src)
        assert NOQA_REASON_ID in _ids(findings)

    def test_unknown_rule_id_is_an_error(self):
        src = "x = 1  # repro: noqa[NOT-A-RULE]: whatever\n"
        findings = _lint(src)
        assert _ids(findings) == [NOQA_UNKNOWN_ID]

    def test_unused_noqa_is_a_warning(self):
        src = "x = 1  # repro: noqa[DET-WALLCLOCK]: nothing here\n"
        findings = _lint(src)
        assert _ids(findings) == [NOQA_UNUSED_ID]
        assert findings[0].severity == SEVERITY_WARNING

    def test_noqa_inside_string_literal_is_ignored(self):
        src = 's = "# repro: noqa[DET-WALLCLOCK]: not a comment"\n'
        assert _lint(src) == []

    def test_syntax_error_yields_parse_finding(self):
        findings = _lint("def broken(:\n")
        assert _ids(findings) == [PARSE_ID]
        assert findings[0].severity == SEVERITY_ERROR


class TestJsonOutput:
    def test_document_schema(self):
        findings = _lint(VIOLATION)
        doc = json.loads(render_json(findings, files=1, paths=["src"]))
        assert doc["format"] == "repro-lint"
        assert doc["version"] == 1
        assert doc["paths"] == ["src"]
        assert doc["files"] == 1
        assert doc["counts"] == {"errors": 1, "warnings": 0}
        assert set(doc["rules"]) >= {
            "DET-WALLCLOCK", "DET-RNG", "DET-SETORDER",
            "OBS-GUARD", "LOCK-STORE", "FLOAT-EQ",
        }
        (entry,) = doc["findings"]
        assert entry["rule"] == "DET-WALLCLOCK"
        assert entry["path"] == FIXTURE_PATH
        assert entry["severity"] == SEVERITY_ERROR
        assert isinstance(entry["line"], int)
        assert isinstance(entry["col"], int)
        assert entry["message"]

    def test_catalog_entries_carry_invariants(self):
        catalog = rule_catalog()
        for rule_id, info in catalog.items():
            assert info["severity"] in (SEVERITY_ERROR, SEVERITY_WARNING)
            assert info["invariant"], rule_id


class TestCliExitCodes:
    def _run(self, *args: str, cwd: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = self._run("ok.py", cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violation_exits_one(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(VIOLATION)
        proc = self._run("src", cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DET-WALLCLOCK" in proc.stdout

    def test_violation_is_caught_from_any_working_directory(
        self, tmp_path,
    ):
        pkg = tmp_path / "project" / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(VIOLATION)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        proc = self._run(str(tmp_path / "project" / "src"), cwd=elsewhere)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "src/repro/bad.py:" in proc.stdout
        assert "DET-WALLCLOCK" in proc.stdout

    def test_missing_path_exits_two(self, tmp_path):
        proc = self._run("no/such/dir", cwd=tmp_path)
        assert proc.returncode == 2

    def test_json_format_is_parseable(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(VIOLATION)
        proc = self._run("--format", "json", "src", cwd=tmp_path)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["format"] == "repro-lint"
        assert doc["counts"]["errors"] == 1
