"""QED multi-query aggregation: merge a batch into one disjunctive query.

The paper: "the select queries in our workload can be merged to a single
group with a disjunction of the predicates in each query."  The
aggregator parses each queued query, verifies the batch is structurally
mergeable (same select list, same table, each WHERE an equality on the
same column -- or, for the generalized path, any predicate), dedups
shared disjuncts (overlapping-predicate generalization), and renders the
merged SQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from repro.db.errors import DatabaseError
from repro.db.sql import ast
from repro.db.sql.parser import PARSE_MEMO_SIZE, parse


class NotMergeableError(ValueError):
    """The batch cannot be evaluated as one aggregated query."""


#: Hashable mergeable-template identity: two queries with equal keys can
#: always join one merged batch (same select list, same table, plain
#: selection shape).  ``None`` marks a query no QED partition can hold.
PartitionKey = tuple


@dataclass(frozen=True)
class MergedQuery:
    """The aggregated query plus the routing information for splitting."""

    select: ast.Select
    #: per original query: its predicate (evaluation order preserved)
    predicates: tuple[ast.Expr, ...]
    #: equality routing: column name and per-query literal value, when
    #: every predicate is ``column = literal`` (the paper's workload)
    routing_column: str | None = None
    routing_values: tuple[object, ...] = field(default=())

    @cached_property
    def sql(self) -> str:
        return self.select.to_sql()

    @property
    def batch_size(self) -> int:
        return len(self.predicates)

    @property
    def hash_routable(self) -> bool:
        """True when the splitter can route rows with one hash lookup."""
        return self.routing_column is not None


def _exposes_column(item: ast.SelectItem, column: str) -> bool:
    """True when the select item puts ``column`` in the result under
    its own name (``SELECT *`` exposes everything; an alias hides the
    original name from the splitter)."""
    if not isinstance(item.expr, ast.ColumnRef):
        return False
    if item.expr.name == "*":
        return True
    return item.expr.name == column and item.alias in (None, column)


def _equality_parts(pred: ast.Expr) -> tuple[str, object] | None:
    """(column, literal value) when ``pred`` is ``col = literal``."""
    if not isinstance(pred, ast.Comparison) or pred.op != "=":
        return None
    left, right = pred.left, pred.right
    if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
        left, right = right, left
    if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
        return left.name, right.value
    return None


def _shape_violation(select: ast.Select) -> str | None:
    """Why ``select`` can never join a merged batch (None: it can).

    These are exactly the per-query preconditions :func:`merge_queries`
    enforces; :func:`partition_key` derives partition keys from the
    same checks so a master queue can only group queries the merger
    will accept.
    """
    if (select.group_by or select.having or select.order_by
            or select.limit is not None or select.distinct):
        return "only plain select-project queries can be aggregated"
    if len(select.tables) != 1:
        return "aggregation needs single-table queries"
    if select.where is None:
        return "a query without WHERE matches all rows"
    return None


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _interned(value):
    """The first-seen object structurally equal to ``value``.

    Equal templates from different statements become one object, so the
    per-batch comparisons below are identity checks instead of walks
    over frozen-dataclass trees.  Eviction can only cost a walk: every
    identity check falls back to ``==``.
    """
    return value


@dataclass(frozen=True, eq=False)
class _Statement:
    """What :func:`merge_queries` needs to know about one statement."""

    #: :func:`_shape_violation` of the statement
    violation: str | None
    #: interned ``(items, tables)`` template
    template: PartitionKey
    where: ast.Expr | None
    #: :func:`_equality_parts` of ``where``
    equality: tuple[str, object] | None


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _statement(sql: str) -> _Statement:
    """The per-statement facts, derived once per distinct text beside
    the parse."""
    select = parse(sql)
    return _Statement(
        _shape_violation(select),
        _interned((select.items, select.tables)),
        select.where,
        _equality_parts(select.where),
    )


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def partition_key(sql: str) -> PartitionKey | None:
    """``sql``'s mergeable-template key (memoized on the SQL text).

    ``None`` routes the query to a pass-through (singleton) partition:
    unparseable text, multi-table queries, and any non-plain-selection
    shape all land there rather than poisoning a merged batch.  The
    ``None`` is memoized too, so pass-through text is lexed once, not
    once per arrival.
    """
    try:
        statement = _statement(sql)
    except DatabaseError:
        return None
    return None if statement.violation is not None else statement.template


def merge_queries(sqls: list[str]) -> MergedQuery:
    """Aggregate a batch of selections into one disjunctive query.

    Everything per-statement comes from :func:`_statement`, so a batch
    of known statements costs a lookup per query plus building and
    rendering the merged ``Select``.
    """
    if not sqls:
        raise NotMergeableError("empty batch")
    statements = [_statement(sql) for sql in sqls]
    first = statements[0]
    for statement in statements:
        if statement.violation is not None:
            raise NotMergeableError(statement.violation)
        if statement.template is first.template:
            continue
        if statement.template[0] != first.template[0]:
            raise NotMergeableError("select lists differ across the batch")
        if statement.template[1] != first.template[1]:
            raise NotMergeableError("tables differ across the batch")
    items, tables = first.template

    # Dedup shared disjuncts (the overlap generalization): keep the first
    # occurrence of each structurally-identical predicate.
    unique = list(dict.fromkeys(s.where for s in statements))

    merged = ast.Select(
        items=items, tables=tables, where=ast.or_all(unique),
    )

    routing_column: str | None = None
    routing_values: tuple[object, ...] = ()
    parts = [statement.equality for statement in statements]
    if all(p is not None for p in parts):
        columns = {p[0] for p in parts}  # type: ignore[index]
        # Duplicate values stay hash-routable: the splitter hands a row
        # to *every* query sharing its value (identical queries in a
        # batch share their result).  Hash routing does require the
        # routing column in the result *under its own name* -- the
        # client routes on result rows, so a projected-away or aliased
        # value forces the predicate-based split.  ``SELECT *`` keeps
        # every column and stays routable.
        column = columns.pop() if len(columns) == 1 else None
        if column is not None and any(
            _exposes_column(item, column) for item in items
        ):
            routing_column = column
            routing_values = tuple(
                p[1] for p in parts  # type: ignore[index]
            )

    return MergedQuery(
        select=merged,
        predicates=tuple(s.where for s in statements),
        routing_column=routing_column,
        routing_values=routing_values,
    )
