"""SQL abstract syntax tree.

Every node renders back to SQL via ``to_sql()``; the QED aggregator
relies on this to build merged queries, and tests use it for round-trip
checks (parse -> to_sql -> parse yields an equal tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Expr:
    """Base class for scalar/boolean expressions."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int, float, str

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, float):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class DateLiteral(Expr):
    iso: str  # 'YYYY-MM-DD'

    def to_sql(self) -> str:
        return f"DATE '{self.iso}'"


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr

    def to_sql(self) -> str:
        return (
            f"{self.operand.to_sql()} BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()}"
        )


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]

    def to_sql(self) -> str:
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"{self.operand.to_sql()} IN ({inner})"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} AND {self.right.to_sql()})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} OR {self.right.to_sql()})"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"


AGGREGATE_FUNCS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # lower-cased
    arg: Expr | None  # None only for COUNT(*)
    distinct: bool = False  # COUNT(DISTINCT expr)

    def to_sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.to_sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCS


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None

    def to_sql(self) -> str:
        sql = self.expr.to_sql()
        return f"{sql} AS {self.alias}" if self.alias else sql

    def output_name(self, ordinal: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"col{ordinal}"


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    def to_sql(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name

    @property
    def binding(self) -> str:
        """The name the query text uses for this table."""
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        return self.expr.to_sql() + (" DESC" if self.descending else "")


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = field(default=())
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = field(default=())
    limit: int | None = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        parts.append("FROM " + ", ".join(t.to_sql() for t in self.tables))
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(e.to_sql() for e in self.group_by)
            )
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND factors."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def disjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level OR terms."""
    if expr is None:
        return []
    if isinstance(expr, Or):
        return disjuncts(expr.left) + disjuncts(expr.right)
    return [expr]


def and_all(exprs: list[Expr]) -> Expr | None:
    """Combine predicates with AND (None for an empty list)."""
    result: Expr | None = None
    for expr in exprs:
        result = expr if result is None else And(result, expr)
    return result


def or_all(exprs: list[Expr]) -> Expr | None:
    """Combine predicates with OR (None for an empty list)."""
    result: Expr | None = None
    for expr in exprs:
        result = expr if result is None else Or(result, expr)
    return result


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references in an expression, in evaluation order."""
    out: list[ColumnRef] = []

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            out.append(node)
        elif isinstance(node, Comparison):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, Arithmetic):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Negate):
            walk(node.operand)
        elif isinstance(node, FuncCall) and node.arg is not None:
            walk(node.arg)

    walk(expr)
    return out
