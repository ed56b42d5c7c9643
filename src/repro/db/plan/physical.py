"""Physical plan nodes.

A physical plan is a tree of dataclass nodes; :mod:`repro.db.exec.operators`
interprets it.  ``est_rows`` carries the optimizer's cardinality estimate
for costing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.sql import ast


class PhysNode:
    """Base class for physical plan nodes."""

    est_rows: float

    def children(self) -> list["PhysNode"]:
        return []


@dataclass
class PhysScan(PhysNode):
    table_name: str
    binding: str
    predicate: ast.Expr | None
    est_rows: float = 0.0
    #: column pruning: only these columns survive into the pipeline
    #: (None = all).  Page I/O is unaffected -- a row store reads whole
    #: pages -- but CPU-side batch width and spill volume shrink.
    columns: frozenset[str] | None = None


@dataclass
class PhysHashJoin(PhysNode):
    build: PhysNode
    probe: PhysNode
    build_key: ast.ColumnRef
    probe_key: ast.ColumnRef
    #: extra equality predicates applicable once both sides are joined
    post_predicates: list[ast.Expr] = field(default_factory=list)
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.build, self.probe]


@dataclass
class PhysFilter(PhysNode):
    child: PhysNode
    predicate: ast.Expr
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.child]


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computation: func over an argument expression."""

    func: str                 # sum/count/avg/min/max
    arg: ast.Expr | None      # None for COUNT(*)
    output: str               # internal column name (__agg{i})
    distinct: bool = False    # COUNT(DISTINCT arg)


@dataclass
class PhysAggregate(PhysNode):
    child: PhysNode
    group_exprs: list[ast.Expr]        # keyed as __grp{i}
    aggregates: list[AggregateSpec]
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.child]


@dataclass
class PhysProject(PhysNode):
    child: PhysNode
    items: list[ast.SelectItem]
    #: when projecting over an aggregate, expressions have had their
    #: aggregate/group sub-terms replaced by __agg{i}/__grp{i} refs.
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.child]


@dataclass
class PhysDistinct(PhysNode):
    child: PhysNode
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.child]


@dataclass
class PhysSort(PhysNode):
    child: PhysNode
    keys: list[ast.OrderItem]
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.child]


@dataclass
class PhysLimit(PhysNode):
    child: PhysNode
    limit: int
    est_rows: float = 0.0

    def children(self) -> list[PhysNode]:
        return [self.child]
