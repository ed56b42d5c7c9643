"""Binder, optimizer, and plan shapes."""

import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Database
from repro.db.errors import PlanError
from repro.db.plan.cost import estimate_selectivity
from repro.db.plan.logical import bind
from repro.db.plan.physical import (
    PhysAggregate,
    PhysHashJoin,
    PhysLimit,
    PhysProject,
    PhysScan,
    PhysSort,
)
from repro.db.profiles import mysql_profile
from repro.db.schema import ColumnDef, TableSchema
from repro.db.sql.parser import parse
from repro.db.types import DataType


@pytest.fixture()
def db() -> Database:
    db = Database(mysql_profile())
    db.create_table(
        TableSchema("big", [
            ColumnDef("k", DataType.INT64),
            ColumnDef("g", DataType.INT64),
            ColumnDef("v", DataType.FLOAT64),
        ]),
        {
            "k": list(range(1000)),
            "g": [i % 10 for i in range(1000)],
            "v": [float(i) for i in range(1000)],
        },
    )
    db.create_table(
        TableSchema("small", [
            ColumnDef("g", DataType.INT64),
            ColumnDef("name", DataType.STRING),
        ]),
        {"g": list(range(10)), "name": [f"g{i}" for i in range(10)]},
    )
    return db


class TestBinder:
    def test_qualifies_columns(self, db):
        bound = bind(parse("SELECT k FROM big WHERE v > 1"), db.catalog)
        assert bound.items[0].expr.table == "big"

    def test_classifies_predicates(self, db):
        bound = bind(parse(
            "SELECT k FROM big, small "
            "WHERE big.g = small.g AND v > 1 AND name = 'g1'"
        ), db.catalog)
        assert len(bound.join_predicates) == 1
        assert len(bound.table_predicates["big"]) == 1
        assert len(bound.table_predicates["small"]) == 1

    def test_unknown_table(self, db):
        with pytest.raises(PlanError):
            bind(parse("SELECT x FROM nope"), db.catalog)

    def test_unknown_column(self, db):
        with pytest.raises(PlanError):
            bind(parse("SELECT nope FROM big"), db.catalog)

    def test_ambiguous_column(self, db):
        with pytest.raises(PlanError):
            bind(parse("SELECT g FROM big, small"), db.catalog)

    def test_star_expansion(self, db):
        bound = bind(parse("SELECT * FROM small"), db.catalog)
        assert [i.expr.name for i in bound.items] == ["g", "name"]

    def test_duplicate_binding(self, db):
        with pytest.raises(PlanError):
            bind(parse("SELECT 1 FROM big, big"), db.catalog)


class TestPlans:
    def test_pushdown_into_scan(self, db):
        plan = db.plan("SELECT k FROM big WHERE v > 500")
        scan = plan
        while not isinstance(scan, PhysScan):
            scan = scan.children()[0]
        assert scan.predicate is not None

    def test_join_builds_on_smaller_side(self, db):
        plan = db.plan(
            "SELECT k FROM big, small WHERE big.g = small.g"
        )
        join = plan.children()[0]
        assert isinstance(join, PhysHashJoin)
        assert join.build.est_rows <= join.probe.est_rows

    def test_cross_join_rejected(self, db):
        with pytest.raises(PlanError):
            db.plan("SELECT k FROM big, small")

    def test_aggregate_plan_shape(self, db):
        plan = db.plan(
            "SELECT g, SUM(v) AS total FROM big GROUP BY g"
        )
        assert isinstance(plan, PhysProject)
        assert isinstance(plan.children()[0], PhysAggregate)

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(PlanError):
            db.plan("SELECT k, SUM(v) FROM big GROUP BY g")

    def test_sort_after_project_for_output_keys(self, db):
        plan = db.plan("SELECT g, SUM(v) AS t FROM big GROUP BY g "
                       "ORDER BY t DESC")
        assert isinstance(plan, PhysSort)
        assert isinstance(plan.children()[0], PhysProject)

    def test_sort_before_project_for_hidden_keys(self, db):
        plan = db.plan("SELECT k FROM big ORDER BY v")
        # sort must run below the projection since v is not output
        assert isinstance(plan, PhysProject)
        assert isinstance(plan.children()[0], PhysSort)

    def test_limit_on_top(self, db):
        plan = db.plan("SELECT k FROM big LIMIT 5")
        assert isinstance(plan, PhysLimit)

    def test_column_pruning(self, db):
        plan = db.plan("SELECT k FROM big WHERE v > 1")
        scan = plan
        while not isinstance(scan, PhysScan):
            scan = scan.children()[0]
        assert scan.columns == frozenset({"k", "v"})

    def test_plan_operators(self, db):
        nodes, kinds = [db.plan(
            "SELECT g, COUNT(*) AS n FROM big GROUP BY g ORDER BY n"
        )], set()
        while nodes:
            node = nodes.pop()
            kinds.add(type(node))
            nodes.extend(node.children())
        assert {PhysAggregate, PhysScan} <= kinds

    def test_scan_names_its_table(self, db):
        scan = db.plan("SELECT k FROM big").children()[0]
        assert isinstance(scan, PhysScan)
        assert scan.table_name == "big"


class TestSelectivity:
    def _stats(self, db) -> Catalog:
        return db.catalog.stats("big")

    def test_equality(self, db):
        stats = self._stats(db)
        sel = estimate_selectivity(
            parse("SELECT k FROM big WHERE g = 3").where, stats
        )
        assert sel == pytest.approx(0.1)

    def test_range(self, db):
        stats = self._stats(db)
        sel = estimate_selectivity(
            parse("SELECT k FROM big WHERE v >= 500").where, stats
        )
        assert 0.4 < sel < 0.6

    def test_conjunction_multiplies(self, db):
        stats = self._stats(db)
        sel = estimate_selectivity(
            parse("SELECT k FROM big WHERE g = 3 AND v >= 500").where,
            stats,
        )
        assert sel == pytest.approx(0.1 * 0.5005, rel=0.05)

    def test_or_adds(self, db):
        stats = self._stats(db)
        sel = estimate_selectivity(
            parse("SELECT k FROM big WHERE g = 3 OR g = 4").where, stats
        )
        assert sel == pytest.approx(0.19, abs=0.02)

    def test_in_list(self, db):
        stats = self._stats(db)
        sel = estimate_selectivity(
            parse("SELECT k FROM big WHERE g IN (1,2,3)").where, stats
        )
        assert sel == pytest.approx(0.3, abs=0.01)
