"""Binding and logical analysis of a parsed SELECT.

The binder resolves table references, expands ``*``, qualifies every
column reference with its table binding, and classifies WHERE conjuncts
into per-table predicates, equi-join predicates, and residual
predicates.  The optimizer consumes the resulting :class:`BoundQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.catalog import Catalog
from repro.db.errors import PlanError
from repro.db.sql import ast


@dataclass(frozen=True)
class EquiJoin:
    """An equality predicate joining two bindings."""

    left: ast.ColumnRef   # qualified
    right: ast.ColumnRef  # qualified

    @property
    def bindings(self) -> frozenset[str]:
        return frozenset({self.left.table, self.right.table})

    def key_for(self, binding: str) -> ast.ColumnRef:
        if self.left.table == binding:
            return self.left
        if self.right.table == binding:
            return self.right
        raise PlanError(f"join {self} does not touch binding {binding!r}")

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} = {self.right.to_sql()}"


@dataclass
class BoundQuery:
    """A SELECT after binding/qualification."""

    select: ast.Select
    bindings: dict[str, str]  # binding -> table name
    items: list[ast.SelectItem]
    table_predicates: dict[str, list[ast.Expr]] = field(default_factory=dict)
    join_predicates: list[EquiJoin] = field(default_factory=list)
    residual_predicates: list[ast.Expr] = field(default_factory=list)
    group_by: list[ast.Expr] = field(default_factory=list)
    having: ast.Expr | None = None
    order_by: list[ast.OrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False

    @property
    def binding_order(self) -> list[str]:
        return [t.binding for t in self.select.tables]

    @property
    def has_aggregates(self) -> bool:
        if self.group_by:
            return True
        return any(_contains_aggregate(item.expr) for item in self.items)


def bind(select: ast.Select, catalog: Catalog) -> BoundQuery:
    """Resolve and classify a parsed SELECT against the catalog."""
    bindings: dict[str, str] = {}
    for ref in select.tables:
        if ref.binding in bindings:
            raise PlanError(f"duplicate table binding {ref.binding!r}")
        if not catalog.has_table(ref.name):
            raise PlanError(f"no table {ref.name!r}")
        bindings[ref.binding] = ref.name

    resolver = _Resolver(bindings, catalog)
    items = _expand_star(select.items, bindings, catalog)
    items = [
        ast.SelectItem(resolver.qualify(item.expr), item.alias)
        for item in items
    ]
    where = resolver.qualify(select.where) if select.where else None
    group_by = [resolver.qualify(e) for e in select.group_by]
    having = resolver.qualify(select.having) if select.having else None
    order_by = [
        ast.OrderItem(resolver.qualify_order(o.expr, items), o.descending)
        for o in select.order_by
    ]

    bound = BoundQuery(
        select=select,
        bindings=bindings,
        items=items,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=select.limit,
        distinct=select.distinct,
        table_predicates={b: [] for b in bindings},
    )
    for conjunct in ast.conjuncts(where):
        for factored in ast.conjuncts(factor_common_conjuncts(conjunct)):
            _classify(factored, bound)
    return bound


def _classify(pred: ast.Expr, bound: BoundQuery) -> None:
    refs = ast.column_refs(pred)
    touched = {r.table for r in refs}
    if len(touched) == 1:
        bound.table_predicates[touched.pop()].append(pred)
        return
    if (
        isinstance(pred, ast.Comparison)
        and pred.op == "="
        and isinstance(pred.left, ast.ColumnRef)
        and isinstance(pred.right, ast.ColumnRef)
        and pred.left.table != pred.right.table
    ):
        bound.join_predicates.append(EquiJoin(pred.left, pred.right))
        return
    bound.residual_predicates.append(pred)


def _expand_star(items: tuple[ast.SelectItem, ...],
                 bindings: dict[str, str],
                 catalog: Catalog) -> list[ast.SelectItem]:
    out: list[ast.SelectItem] = []
    for item in items:
        expr = item.expr
        if isinstance(expr, ast.ColumnRef) and expr.name == "*":
            targets = [expr.table] if expr.table else list(bindings)
            for binding in targets:
                if binding not in bindings:
                    raise PlanError(f"unknown binding {binding!r} in *")
                schema = catalog.schema(bindings[binding])
                for name in schema.column_names:
                    out.append(
                        ast.SelectItem(ast.ColumnRef(name, binding), None)
                    )
        else:
            out.append(item)
    return out


class _Resolver:
    def __init__(self, bindings: dict[str, str], catalog: Catalog):
        self.bindings = bindings
        self.catalog = catalog

    def _owner(self, ref: ast.ColumnRef) -> str:
        if ref.table is not None:
            if ref.table not in self.bindings:
                raise PlanError(f"unknown table binding {ref.table!r}")
            schema = self.catalog.schema(self.bindings[ref.table])
            if not schema.has_column(ref.name):
                raise PlanError(
                    f"no column {ref.name!r} in {ref.table!r}"
                )
            return ref.table
        owners = [
            b for b, t in self.bindings.items()
            if self.catalog.schema(t).has_column(ref.name)
        ]
        if not owners:
            raise PlanError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise PlanError(
                f"ambiguous column {ref.name!r} across {sorted(owners)}"
            )
        return owners[0]

    def qualify(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            return ast.ColumnRef(expr.name, self._owner(expr))
        if isinstance(expr, ast.Comparison):
            return ast.Comparison(
                expr.op, self.qualify(expr.left), self.qualify(expr.right)
            )
        if isinstance(expr, ast.Between):
            return ast.Between(
                self.qualify(expr.operand),
                self.qualify(expr.low),
                self.qualify(expr.high),
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                self.qualify(expr.operand),
                tuple(self.qualify(i) for i in expr.items),
            )
        if isinstance(expr, ast.And):
            return ast.And(self.qualify(expr.left), self.qualify(expr.right))
        if isinstance(expr, ast.Or):
            return ast.Or(self.qualify(expr.left), self.qualify(expr.right))
        if isinstance(expr, ast.Not):
            return ast.Not(self.qualify(expr.operand))
        if isinstance(expr, ast.Arithmetic):
            return ast.Arithmetic(
                expr.op, self.qualify(expr.left), self.qualify(expr.right)
            )
        if isinstance(expr, ast.Negate):
            return ast.Negate(self.qualify(expr.operand))
        if isinstance(expr, ast.FuncCall):
            arg = self.qualify(expr.arg) if expr.arg is not None else None
            return ast.FuncCall(expr.name, arg, expr.distinct)
        return expr  # literals

    def qualify_order(self, expr: ast.Expr,
                      items: list[ast.SelectItem]) -> ast.Expr:
        """ORDER BY may reference a select alias; leave those unqualified."""
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            aliases = {
                item.output_name(i) for i, item in enumerate(items)
            }
            if expr.name in aliases:
                return expr
        return self.qualify(expr)


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if expr.is_aggregate:
            return True
        return expr.arg is not None and _contains_aggregate(expr.arg)
    if isinstance(expr, (ast.And, ast.Or, ast.Arithmetic, ast.Comparison)):
        return _contains_aggregate(expr.left) or _contains_aggregate(
            expr.right
        )
    if isinstance(expr, (ast.Not, ast.Negate)):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Between):
        return any(
            _contains_aggregate(e)
            for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, ast.InList):
        return _contains_aggregate(expr.operand) or any(
            _contains_aggregate(i) for i in expr.items
        )
    return False


def factor_common_conjuncts(expr: ast.Expr) -> ast.Expr:
    """Rewrite ``(A AND X) OR (A AND Y)`` into ``A AND (X OR Y)``.

    TPC-H Q19's WHERE clause is a disjunction whose every branch repeats
    the join predicate; without this factoring the planner would see no
    usable equi-join.  Conjuncts present in *every* disjunct are hoisted
    above the OR (a semantics-preserving distributivity rewrite).
    """
    disjuncts = ast.disjuncts(expr)
    if len(disjuncts) < 2:
        return expr
    conjunct_sets = [set(ast.conjuncts(d)) for d in disjuncts]
    common = set.intersection(*conjunct_sets)
    if not common:
        return expr
    # Preserve source order of the common factors.
    ordered_common = [
        c for c in ast.conjuncts(disjuncts[0]) if c in common
    ]
    residuals = []
    for disjunct in disjuncts:
        rest = [c for c in ast.conjuncts(disjunct) if c not in common]
        residuals.append(ast.and_all(rest))
    out = ast.and_all(ordered_common)
    if all(r is not None for r in residuals):
        out = ast.And(out, ast.or_all(residuals))
    return out
