"""AST rule engine for the project invariant linter (``repro lint``).

The simulator's headline guarantees -- bitwise-reproducible runs keyed
by :mod:`repro.obs.fingerprint` run ids, tracing-off runs identical to
seed behavior, first-writer-wins safety in the mmap trace store -- are
structural properties, not test outcomes.  This package enforces them
mechanically: each :class:`Rule` is an AST pass with a stable id, a
severity, and a default path scope; the :class:`Linter` runs every
registered rule over every parsed module and merges the findings.

Suppressions are inline and must carry a reason::

    risky_thing()  # repro: noqa[FLOAT-EQ]: exact zero is a sentinel

A bare ``# repro: noqa`` (no rule id) or a reasonless suppression is
itself a finding, so the repo can never accumulate unexplained
escapes.  Suppressions that match nothing are reported as warnings to
keep them from outliving the code they excused.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Meta finding ids emitted by the engine itself (not registered rules).
PARSE_ID = "PARSE"
NOQA_BLANKET_ID = "NOQA-BLANKET"
NOQA_REASON_ID = "NOQA-REASON"
NOQA_UNKNOWN_ID = "NOQA-UNKNOWN"
NOQA_UNUSED_ID = "NOQA-UNUSED"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = SEVERITY_ERROR

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.severity}] {self.message}")


# -- AST module context ----------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute (``tracer`` from
    ``self.tracer``), else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Module:
    """One parsed source file plus the derived views rules share."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def functions(
        self,
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            n for n in ast.walk(self.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def call_sites(self, name: str) -> list[ast.Call]:
        """Every in-module call whose callee's terminal name is
        ``name`` (covers ``f(...)``, ``self.f(...)``, ``obj.f(...)``)."""
        return [
            n for n in ast.walk(self.tree)
            if isinstance(n, ast.Call)
            and terminal_name(n.func) == name
        ]


# -- rules -----------------------------------------------------------------


class Rule:
    """Base class: subclass, set the class attributes, implement
    :meth:`check`, and decorate with :func:`register`."""

    rule_id: str = ""
    severity: str = SEVERITY_ERROR
    #: One-line statement of the invariant the rule protects (docs/JSON).
    invariant: str = ""
    #: fnmatch globs (repo-relative posix paths) the rule applies to.
    include: tuple[str, ...] = ("src/repro/*",)
    #: fnmatch globs exempted even when included.
    exclude: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not any(fnmatch.fnmatch(path, pat) for pat in self.include):
            return False
        return not any(fnmatch.fnmatch(path, pat) for pat in self.exclude)

    def check(self, module: Module) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def rule_catalog() -> dict[str, dict]:
    """``{rule_id: {severity, invariant, include, exclude}}``."""
    return {
        rule.rule_id: {
            "severity": rule.severity,
            "invariant": rule.invariant,
            "include": list(rule.include),
            "exclude": list(rule.exclude),
        }
        for rule in all_rules()
    }


# -- noqa suppressions -----------------------------------------------------

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s-]*)\])?"
    r"(?::\s*(?P<reason>.*\S))?"
)


@dataclass
class Suppression:
    line: int
    rule_ids: tuple[str, ...]
    reason: str
    used: bool = False


def _comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """``(lineno, text)`` for every comment token (regexing raw lines
    would also match noqa examples inside string literals)."""
    readline = io.StringIO(source).readline
    try:
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(
    module_path: str, source: str
) -> tuple[list[Suppression], list[Finding]]:
    """Inline ``# repro: noqa[RULE-ID]: reason`` directives.

    Malformed directives (no bracketed rule id, or no reason) are
    findings in their own right and suppress nothing.
    """
    suppressions: list[Suppression] = []
    problems: list[Finding] = []

    def problem(lineno: int, rule_id: str, message: str) -> None:
        problems.append(Finding(
            path=module_path, line=lineno, col=1,
            rule_id=rule_id, message=message,
            severity=SEVERITY_ERROR,
        ))

    for lineno, text in _comment_tokens(source):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules_raw = match.group("rules")
        reason = (match.group("reason") or "").strip()
        if rules_raw is None or not rules_raw.strip():
            problem(lineno, NOQA_BLANKET_ID,
                    "blanket 'repro: noqa' is not allowed; name the "
                    "rule: # repro: noqa[RULE-ID]: reason")
            continue
        rule_ids = tuple(
            r.strip() for r in rules_raw.split(",") if r.strip()
        )
        if not reason:
            problem(lineno, NOQA_REASON_ID,
                    f"noqa[{', '.join(rule_ids)}] needs a reason: "
                    "# repro: noqa[RULE-ID]: why this is safe")
            continue
        suppressions.append(Suppression(lineno, rule_ids, reason))
    return suppressions, problems


# -- linter ----------------------------------------------------------------


class Linter:
    """Run a rule set over sources/paths and merge findings."""

    def __init__(self, rules: list[Rule] | None = None,
                 respect_scopes: bool = True):
        self.rules = rules if rules is not None else all_rules()
        self.respect_scopes = respect_scopes
        self.known_ids = {r.rule_id for r in self.rules}

    def lint_source(self, source: str, path: str) -> list[Finding]:
        suppressions, findings = parse_suppressions(path, source)
        try:
            module = Module(path, source)
        except SyntaxError as exc:
            findings.append(Finding(
                path=path, line=exc.lineno or 1,
                col=(exc.offset or 0) + 1, rule_id=PARSE_ID,
                message=f"syntax error: {exc.msg}",
                severity=SEVERITY_ERROR,
            ))
            return sorted(findings)
        for rule in self.rules:
            if self.respect_scopes and not rule.applies_to(path):
                continue
            for finding in rule.check(module):
                suppressed = False
                for supp in suppressions:
                    if supp.line == finding.line and (
                        finding.rule_id in supp.rule_ids
                    ):
                        supp.used = True
                        suppressed = True
                if not suppressed:
                    findings.append(finding)
        for supp in suppressions:
            unknown = [
                rid for rid in supp.rule_ids if rid not in self.known_ids
            ]
            if unknown:
                findings.append(Finding(
                    path=path, line=supp.line, col=1,
                    rule_id=NOQA_UNKNOWN_ID,
                    message=f"noqa names unknown rule(s) "
                            f"{', '.join(unknown)}",
                    severity=SEVERITY_ERROR,
                ))
            elif not supp.used:
                findings.append(Finding(
                    path=path, line=supp.line, col=1,
                    rule_id=NOQA_UNUSED_ID,
                    message=f"noqa[{', '.join(supp.rule_ids)}] "
                            "suppresses nothing; remove it",
                    severity=SEVERITY_WARNING,
                ))
        return sorted(findings)

    def lint_file(self, path: Path, display: str) -> list[Finding]:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [Finding(
                path=display, line=1, col=1, rule_id=PARSE_ID,
                message=f"unreadable: {exc}", severity=SEVERITY_ERROR,
            )]
        return self.lint_source(source, display)

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        findings: list[Finding] = []
        for display, path in iter_python_files(paths):
            findings.extend(self.lint_file(path, display))
        return sorted(findings)


def _display_path(path: Path) -> str:
    """The path rule scopes match on and findings report: relative to
    the repository root -- the nearest ancestor holding a ``src/repro``
    tree -- so neither depends on the directory the linter runs from.
    A file outside any such tree is shown relative to the cwd."""
    resolved = path.resolve()
    for parent in resolved.parents:
        if (parent / "src" / "repro").is_dir():
            return resolved.relative_to(parent).as_posix()
    try:
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(
    paths: Iterable[str | Path],
) -> Iterator[tuple[str, Path]]:
    """``(display_path, real_path)`` for every .py under ``paths``,
    sorted for deterministic output order."""
    seen: set[str] = set()
    out: list[tuple[str, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            files = [path]
        for f in files:
            if "__pycache__" in f.parts:
                continue
            display = _display_path(f)
            if display not in seen:
                seen.add(display)
                out.append((display, f))
    yield from sorted(out)


# -- output formats --------------------------------------------------------


def render_text(findings: list[Finding], files: int) -> str:
    lines = [f.render() for f in findings]
    errors = sum(1 for f in findings if f.severity == SEVERITY_ERROR)
    warnings = len(findings) - errors
    lines.append(
        f"repro lint: {files} file(s), {errors} error(s), "
        f"{warnings} warning(s)"
    )
    return "\n".join(lines)


def render_json(findings: list[Finding], files: int,
                paths: list[str]) -> str:
    errors = sum(1 for f in findings if f.severity == SEVERITY_ERROR)
    doc = {
        "format": "repro-lint",
        "version": 1,
        "paths": paths,
        "files": files,
        "rules": rule_catalog(),
        "findings": [f.to_dict() for f in findings],
        "counts": {
            "errors": errors,
            "warnings": len(findings) - errors,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
