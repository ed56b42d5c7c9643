"""Query optimizer: predicate pushdown, greedy join ordering, rewrites.

The optimizer turns a :class:`~repro.db.plan.logical.BoundQuery` into a
physical plan:

1. single-table predicates are pushed into their scans;
2. join order is chosen greedily over the equi-join graph, smallest
   estimated intermediate result first, with the smaller input as the
   hash-join build side;
3. join predicates made redundant by earlier joins become post-join
   filters;
4. aggregates/group-bys are rewritten into an Aggregate + Project pair;
5. DISTINCT, ORDER BY, LIMIT are layered on top.
"""

from __future__ import annotations

from repro.db.catalog import Catalog
from repro.db.errors import PlanError
from repro.db.plan import cost as cost_mod
from repro.db.plan.logical import BoundQuery, EquiJoin, bind
from repro.db.plan.physical import (
    AggregateSpec,
    PhysAggregate,
    PhysDistinct,
    PhysFilter,
    PhysHashJoin,
    PhysLimit,
    PhysNode,
    PhysProject,
    PhysScan,
    PhysSort,
)
from repro.db.sql import ast


def plan_query(select: ast.Select, catalog: Catalog) -> PhysNode:
    """Plan a parsed SELECT into an executable physical tree."""
    bound = bind(select, catalog)
    node = _plan_joins(bound, catalog)
    for pred in bound.residual_predicates:
        node = PhysFilter(node, pred, est_rows=node.est_rows / 3.0)
    post_sort_keys = _resolve_order_keys(bound)
    if bound.order_by and post_sort_keys is None:
        # Sort keys are not part of the output: sort the qualified rows
        # before projecting (only possible without aggregation).
        if bound.has_aggregates:
            raise PlanError(
                "ORDER BY over aggregates must reference output columns"
            )
        node = PhysSort(node, list(bound.order_by), est_rows=node.est_rows)
    node = _plan_projection(bound, node)
    if bound.distinct:
        node = PhysDistinct(node, est_rows=node.est_rows)
    if post_sort_keys:
        node = PhysSort(node, post_sort_keys, est_rows=node.est_rows)
    if bound.limit is not None:
        node = PhysLimit(node, bound.limit,
                         est_rows=min(node.est_rows, bound.limit))
    return node


def _resolve_order_keys(bound: BoundQuery) -> list[ast.OrderItem] | None:
    """Rewrite ORDER BY keys to bare output-column names if possible.

    Returns None when any key is not derivable from the select list, in
    which case the sort must run before the projection.
    """
    if not bound.order_by:
        return []
    output_names: dict = {}
    for i, item in enumerate(bound.items):
        output_names[item.output_name(i)] = item.output_name(i)
    by_expr = {
        item.expr: item.output_name(i)
        for i, item in enumerate(bound.items)
    }
    resolved: list[ast.OrderItem] = []
    for key in bound.order_by:
        expr = key.expr
        if expr in by_expr:
            resolved.append(
                ast.OrderItem(ast.ColumnRef(by_expr[expr]), key.descending)
            )
            continue
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.name in output_names
        ):
            resolved.append(key)
            continue
        return None
    return resolved


# --------------------------------------------------------------------------
# Scans and joins.
# --------------------------------------------------------------------------

def _needed_columns(bound: BoundQuery) -> dict[str, frozenset[str]]:
    """Per-binding column sets referenced anywhere in the query."""
    needed: dict[str, set[str]] = {b: set() for b in bound.bindings}

    def absorb(expr: ast.Expr | None) -> None:
        if expr is None:
            return
        for ref in ast.column_refs(expr):
            if ref.table in needed:
                needed[ref.table].add(ref.name)

    for item in bound.items:
        absorb(item.expr)
    for preds in bound.table_predicates.values():
        for pred in preds:
            absorb(pred)
    for join in bound.join_predicates:
        needed[join.left.table].add(join.left.name)
        needed[join.right.table].add(join.right.name)
    for pred in bound.residual_predicates:
        absorb(pred)
    for expr in bound.group_by:
        absorb(expr)
    absorb(bound.having)
    for key in bound.order_by:
        absorb(key.expr)
    return {b: frozenset(cols) for b, cols in needed.items()}


def _make_scan(bound: BoundQuery, catalog: Catalog, binding: str,
               columns: frozenset[str]) -> PhysScan:
    table_name = bound.bindings[binding]
    stats = catalog.stats(table_name)
    preds = bound.table_predicates.get(binding, [])
    predicate = ast.and_all(preds)
    selectivity = 1.0
    for pred in preds:
        selectivity *= cost_mod.estimate_selectivity(pred, stats)
    return PhysScan(
        table_name=table_name,
        binding=binding,
        predicate=predicate,
        est_rows=max(1.0, stats.row_count * selectivity),
        columns=columns,
    )


def _plan_joins(bound: BoundQuery, catalog: Catalog) -> PhysNode:
    needed = _needed_columns(bound)
    scans = {
        binding: _make_scan(bound, catalog, binding, needed[binding])
        for binding in bound.binding_order
    }
    if len(scans) == 1:
        return next(iter(scans.values()))

    remaining_preds = list(bound.join_predicates)
    joined: set[str] = set()
    # Seed with the smallest scan that participates in a join predicate
    # (or just the smallest scan if the graph is empty -- an error later).
    if not remaining_preds:
        raise PlanError(
            "cross joins are not supported: no equi-join predicates found"
        )
    seed = min(scans, key=lambda b: scans[b].est_rows)
    current: PhysNode = scans[seed]
    joined.add(seed)
    pending = [b for b in bound.binding_order if b != seed]

    while pending:
        choice = _best_join(bound, catalog, scans, joined, pending,
                            remaining_preds, current)
        if choice is None:
            raise PlanError(
                "query's join graph is disconnected (cross join needed)"
            )
        binding, join_pred = choice
        new_scan = scans[binding]
        build, probe, build_key, probe_key = _orient(
            current, new_scan, join_pred, binding
        )
        est = _join_estimate(catalog, bound, current, new_scan, join_pred)
        joined.add(binding)
        pending.remove(binding)
        remaining_preds.remove(join_pred)
        # Predicates now fully covered become post-join filters.
        post: list[ast.Expr] = []
        for pred in list(remaining_preds):
            if all(
                t in joined
                for t in (pred.left.table, pred.right.table)
            ):
                post.append(
                    ast.Comparison("=", pred.left, pred.right)
                )
                remaining_preds.remove(pred)
                est *= _post_pred_selectivity(catalog, bound, pred)
        current = PhysHashJoin(
            build=build,
            probe=probe,
            build_key=build_key,
            probe_key=probe_key,
            post_predicates=post,
            est_rows=max(1.0, est),
        )
    return current


def _best_join(
    bound: BoundQuery,
    catalog: Catalog,
    scans: dict[str, PhysScan],
    joined: set[str],
    pending: list[str],
    remaining_preds: list[EquiJoin],
    current: PhysNode,
) -> tuple[str, EquiJoin] | None:
    """Pick the (new binding, predicate) minimizing estimated output."""
    best: tuple[float, str, EquiJoin] | None = None
    for pred in remaining_preds:
        sides = pred.bindings
        inside = sides & joined
        outside = sides - joined
        if len(inside) != 1 or len(outside) != 1:
            continue
        binding = next(iter(outside))
        if binding not in pending:
            continue
        est = _join_estimate(catalog, bound, current, scans[binding], pred)
        key = (est, binding, pred)
        if best is None or est < best[0]:
            best = key
    if best is None:
        return None
    return best[1], best[2]


def _orient(
    current: PhysNode,
    new_scan: PhysScan,
    pred: EquiJoin,
    new_binding: str,
) -> tuple[PhysNode, PhysNode, ast.ColumnRef, ast.ColumnRef]:
    """Choose build/probe sides: build on the smaller input."""
    new_key = pred.key_for(new_binding)
    other = pred.left if pred.right is new_key else pred.right
    if new_key is pred.left:
        other = pred.right
    if new_scan.est_rows <= current.est_rows:
        return new_scan, current, new_key, other
    return current, new_scan, other, new_key


def _join_estimate(catalog: Catalog, bound: BoundQuery,
                   left: PhysNode, right: PhysScan,
                   pred: EquiJoin) -> float:
    l_key = pred.left
    r_key = pred.right
    l_distinct = cost_mod.column_distinct(
        catalog, bound.bindings[l_key.table], l_key.name
    )
    r_distinct = cost_mod.column_distinct(
        catalog, bound.bindings[r_key.table], r_key.name
    )
    return cost_mod.estimate_join_rows(
        left.est_rows, right.est_rows, l_distinct, r_distinct
    )


def _post_pred_selectivity(catalog: Catalog, bound: BoundQuery,
                           pred: EquiJoin) -> float:
    distinct = max(
        cost_mod.column_distinct(
            catalog, bound.bindings[pred.left.table], pred.left.name
        ),
        cost_mod.column_distinct(
            catalog, bound.bindings[pred.right.table], pred.right.name
        ),
    )
    return 1.0 / max(1, distinct)


# --------------------------------------------------------------------------
# Aggregation / projection rewrite.
# --------------------------------------------------------------------------

def _plan_projection(bound: BoundQuery, node: PhysNode) -> PhysNode:
    if not bound.has_aggregates:
        project = PhysProject(node, list(bound.items),
                              est_rows=node.est_rows)
        return project

    group_exprs = list(bound.group_by)
    aggregates: list[AggregateSpec] = []

    def register(func: str, arg: ast.Expr | None,
                 distinct: bool = False) -> str:
        for spec in aggregates:
            if (spec.func == func and spec.arg == arg
                    and spec.distinct == distinct):
                return spec.output
        name = f"__agg{len(aggregates)}"
        aggregates.append(AggregateSpec(func, arg, name, distinct))
        return name

    def rewrite(expr: ast.Expr) -> ast.Expr:
        for j, group in enumerate(group_exprs):
            if expr == group:
                return ast.ColumnRef(f"__grp{j}")
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            return ast.ColumnRef(
                register(expr.name, expr.arg, expr.distinct)
            )
        if isinstance(expr, ast.Arithmetic):
            return ast.Arithmetic(
                expr.op, rewrite(expr.left), rewrite(expr.right)
            )
        if isinstance(expr, ast.Negate):
            return ast.Negate(rewrite(expr.operand))
        if isinstance(expr, ast.Comparison):
            return ast.Comparison(
                expr.op, rewrite(expr.left), rewrite(expr.right)
            )
        if isinstance(expr, ast.And):
            return ast.And(rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, ast.Or):
            return ast.Or(rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, ast.Not):
            return ast.Not(rewrite(expr.operand))
        if isinstance(expr, ast.ColumnRef) and expr.table is not None:
            raise PlanError(
                f"column {expr.to_sql()} must appear in GROUP BY or "
                "inside an aggregate"
            )
        return expr

    items = [
        ast.SelectItem(rewrite(item.expr), item.output_name(i))
        for i, item in enumerate(bound.items)
    ]
    est_groups = max(1.0, min(node.est_rows, node.est_rows ** 0.5)) \
        if group_exprs else 1.0
    agg = PhysAggregate(node, group_exprs, aggregates, est_rows=est_groups)
    out: PhysNode = agg
    if bound.having is not None:
        out = PhysFilter(out, rewrite(bound.having),
                         est_rows=max(1.0, est_groups / 3.0))
    return PhysProject(out, items, est_rows=out.est_rows)
