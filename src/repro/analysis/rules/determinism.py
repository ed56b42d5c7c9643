"""Determinism rules: wall-clock and environment reads, unseeded
randomness, set iteration order, and float equality on physical
quantities.

Bitwise-reproducible runs are the contract behind
:func:`repro.obs.fingerprint.run_id_for`: two runs of the same config
must produce identical schedules, energies, and run ids.  Each rule
here bans one way a contribution can silently break that.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, Iterator

from repro.analysis.engine import (
    Finding,
    Module,
    Rule,
    dotted_name,
    register,
)


@register
class WallClockRule(Rule):
    """Simulated time only: no wall-clock reads in the library.

    ``cluster/``, ``obs/``, and ``core/`` advance on arrival
    timestamps; a ``time.time()`` read anywhere in the library makes a
    run depend on the host, breaking run-id reproducibility.  Real
    timing belongs in ``benchmarks/``; no file under ``src/`` is exempt.
    """

    rule_id = "DET-WALLCLOCK"
    invariant = ("simulated time only: wall-clock reads are confined "
                 "to benchmarks/")
    include = ("src/repro/*",)

    _BANNED = {
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.date.today", "date.today",
    }
    _BANNED_IMPORTS = {
        "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
                 "monotonic", "monotonic_ns", "process_time",
                 "process_time_ns"},
    }

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in self._BANNED:
                    yield self.finding(
                        module, node,
                        f"wall-clock read {name}() -- simulated time "
                        "only (arrival timestamps); real timing "
                        "belongs in benchmarks/",
                    )
            elif isinstance(node, ast.ImportFrom):
                banned = self._BANNED_IMPORTS.get(node.module or "")
                if banned:
                    for alias in node.names:
                        if alias.name in banned:
                            yield self.finding(
                                module, node,
                                f"imports wall-clock source "
                                f"{node.module}.{alias.name} -- "
                                "simulated time only",
                            )


@register
class EnvRule(Rule):
    """No environment reads in the library: every input is an argument.

    A scenario size or switch read from the process environment makes a
    run depend on the calling shell, which no fingerprint records.
    Sizes arrive as keyword arguments whose defaults are the canonical
    constants; ``benchmarks/`` and ``scripts/`` may read the
    environment and pass the values on.
    """

    rule_id = "DET-ENV"
    invariant = ("no environment access in the library: the os module's "
                 "environment API is confined to benchmarks/ and scripts/")
    include = ("src/repro/*",)

    #: Every environment entry point the os module has (the mapping,
    #: its bytes twin, the getters and setters).
    _ENV_NAMES = frozenset(name for name in dir(os) if "env" in name)

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if (name is not None and name.startswith("os.")
                        and name[3:] in self._ENV_NAMES):
                    yield self.finding(
                        module, node,
                        f"environment access {name} -- pass the value "
                        "as an argument (benchmarks/ and scripts/ may "
                        "read the environment)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in self._ENV_NAMES:
                        yield self.finding(
                            module, node,
                            f"imports environment source "
                            f"os.{alias.name} -- pass the value as an "
                            "argument",
                        )


@register
class RngRule(Rule):
    """Randomness arrives through a threaded seeded ``rng=``.

    The PR-6 determinism audit threads one ``np.random.Generator``
    through arrivals and fault outcomes; the process-global stdlib
    ``random`` module, numpy's legacy global state, and an unseeded
    ``default_rng()`` all re-randomize per process and break same-seed
    identity.
    """

    rule_id = "DET-RNG"
    invariant = ("randomness flows through a seeded rng= parameter; no "
                 "stdlib random, legacy np.random globals, or unseeded "
                 "default_rng()")
    include = ("src/repro/*",)

    _SEEDED_CONSTRUCTORS = {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
    }

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            module, node,
                            "imports the process-global stdlib random "
                            "module; thread a seeded "
                            "np.random.Generator (rng=) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module, node,
                        "imports from the process-global stdlib random "
                        "module; thread a seeded np.random.Generator "
                        "(rng=) instead",
                    )

    def _check_call(self, module: Module,
                    node: ast.Call) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "random" and len(parts) > 1:
            yield self.finding(
                module, node,
                f"{name}() uses process-global stdlib random state; "
                "thread a seeded np.random.Generator (rng=) instead",
            )
            return
        if not name.startswith(("np.random.", "numpy.random.")):
            return
        tail = parts[-1]
        if tail == "default_rng":
            if not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    "unseeded np.random.default_rng() draws entropy "
                    "from the OS; pass an explicit seed or accept a "
                    "threaded rng= parameter",
                )
        elif tail not in self._SEEDED_CONSTRUCTORS:
            yield self.finding(
                module, node,
                f"{name}() uses numpy's legacy global RNG state; use "
                "a threaded seeded np.random.Generator (rng=) instead",
            )


@register
class SetOrderRule(Rule):
    """No iteration over raw sets: their order is hash-randomized.

    A ``for`` over a set (or a list/tuple/join built from one) varies
    across processes under PYTHONHASHSEED; if that order reaches a
    schedule, fingerprint, or placement map, two identical configs stop
    sharing a run id.  Wrap the set in ``sorted(...)`` -- or, where the
    consumer is provably order-free, suppress with a reason.
    """

    rule_id = "DET-SETORDER"
    invariant = ("set iteration is wrapped in sorted(...) before it "
                 "can reach schedules, fingerprints, or placement maps")
    include = ("src/repro/*",)

    #: Calls whose result ignores input order: iterating a set inside
    #: these is harmless (sum/min/max are order-free in exact
    #: arithmetic; float sums over sets are caught at the loop form).
    _ORDER_FREE_CALLS = {
        "sorted", "sum", "min", "max", "any", "all", "len",
        "set", "frozenset",
    }
    _ITER_WRAPPERS = {"list", "tuple", "iter", "enumerate", "zip", "map"}

    def check(self, module: Module) -> Iterable[Finding]:
        for scope in [module.tree] + module.functions():
            env = self._set_typed_names(scope)
            for node in self._scope_walk(scope):
                yield from self._check_node(module, node, env)

    def _scope_walk(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested functions
        (they get their own env pass)."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _set_typed_names(self, scope: ast.AST) -> set[str]:
        """Names assigned only set-typed values in this scope."""
        env: set[str] = set()
        poisoned: set[str] = set()
        # Two passes so chained assignments (b = a after a = set())
        # resolve regardless of AST walk order.
        for _ in range(2):
            for node in self._scope_walk(scope):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                    ann = dotted_name(node.annotation) or ""
                    sub = (
                        dotted_name(node.annotation.value) or ""
                        if isinstance(node.annotation, ast.Subscript)
                        else ""
                    )
                    if {ann, sub} & {"set", "frozenset", "Set",
                                     "FrozenSet", "typing.Set"}:
                        for t in targets:
                            if isinstance(t, ast.Name):
                                env.add(t.id)
                        continue
                    value = node.value
                if value is None:
                    continue
                is_set = self._is_set(value, env)
                for t in targets:
                    if isinstance(t, ast.Name):
                        if is_set and t.id not in poisoned:
                            env.add(t.id)
                        elif not is_set:
                            env.discard(t.id)
                            poisoned.add(t.id)
        return env

    def _is_set(self, node: ast.expr, env: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in env
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference", "copy",
            ):
                return self._is_set(node.func.value, env)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return (self._is_set(node.left, env)
                    or self._is_set(node.right, env))
        if isinstance(node, ast.IfExp):
            return (self._is_set(node.body, env)
                    and self._is_set(node.orelse, env))
        return False

    def _check_node(self, module: Module, node: ast.AST,
                    env: set[str]) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if self._is_set(node.iter, env):
                yield self._order_finding(module, node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.DictComp)):
            if self._consumed_order_free(module, node):
                return
            for comp in node.generators:
                if self._is_set(comp.iter, env):
                    yield self._order_finding(
                        module, comp.iter, "comprehension"
                    )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            wraps = (
                name in self._ITER_WRAPPERS
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join")
            )
            if wraps and node.args and self._is_set(node.args[0], env):
                label = name or "join"
                yield self._order_finding(
                    module, node.args[0], f"{label}() materialization"
                )

    def _consumed_order_free(self, module: Module,
                             node: ast.AST) -> bool:
        """Comprehension fed directly into an order-free consumer."""
        parent = module.parent(node)
        return (
            isinstance(parent, ast.Call)
            and node in parent.args
            and dotted_name(parent.func) in self._ORDER_FREE_CALLS
        )

    def _order_finding(self, module: Module, node: ast.AST,
                       context: str) -> Finding:
        return self.finding(
            module, node,
            f"set iteration order is hash-randomized across processes "
            f"({context}); wrap in sorted(...) before the order can "
            "reach a schedule, fingerprint, or placement map",
        )


@register
class FloatEqRule(Rule):
    """No ``==``/``!=`` on float energy/time/power quantities.

    Names matching ``*_joules``/``*_s``/``*_w`` (and ``*_j``,
    ``*joule*``, ``*watts``) carry accumulated float arithmetic; the
    project's identity checks are tolerance-based (<= 1e-9), so an
    exact comparison is either a latent bug or an exact-sentinel check
    that deserves an explanatory noqa.
    """

    rule_id = "FLOAT-EQ"
    invariant = ("energy/time/power floats compare via tolerances, "
                 "never ==/!=")
    include = ("src/repro/*",)

    _QUANTITY_RE = re.compile(
        r"(?:^|_)(?:joules?|watts?)$|_(?:s|w|j)$"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            elements = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (elements[i], elements[i + 1]):
                    name = terminal_quantity(side)
                    if name is not None:
                        yield self.finding(
                            module, node,
                            f"float equality on quantity '{name}'; "
                            "compare with a tolerance "
                            "(abs(a - b) <= eps) or noqa an "
                            "exact-sentinel check with a reason",
                        )
                        break


def terminal_quantity(node: ast.expr) -> str | None:
    """The quantity-suffixed identifier a comparison side names."""
    from repro.analysis.engine import terminal_name

    name = terminal_name(node)
    if name is not None and FloatEqRule._QUANTITY_RE.search(name):
        return name
    return None
