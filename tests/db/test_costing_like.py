"""Energy-aware plan costing and LIKE support."""

import pytest

from repro.db.engine import Database
from repro.db.plan.cost import (
    CostEstimate,
    CostWeights,
    EDP_BALANCED,
    ENERGY_OPTIMAL,
    TIME_OPTIMAL,
)
from repro.db.plan.costing import PlanCoster, rank_plans
from repro.db.profiles import commercial_profile, mysql_profile
from repro.db.schema import ColumnDef, TableSchema
from repro.db.types import DataType
from repro.hardware.profiles import paper_sut


@pytest.fixture()
def db() -> Database:
    db = Database(mysql_profile())
    db.create_table(
        TableSchema("t", [
            ColumnDef("k", DataType.INT64),
            ColumnDef("g", DataType.INT64),
            ColumnDef("s", DataType.STRING),
        ]),
        {
            "k": list(range(2000)),
            "g": [i % 20 for i in range(2000)],
            "s": [f"name_{i % 5:02d}" for i in range(2000)],
        },
    )
    return db


class TestCostEstimate:
    def test_algebra(self):
        a = CostEstimate(1.0, 10.0)
        b = CostEstimate(2.0, 5.0)
        total = a + b
        assert total.time_s == 3.0 and total.energy_j == 15.0
        assert a.edp == 10.0
        assert a.weighted(1.0, 0.0) == 1.0
        assert a.weighted(0.0, 1.0) == 10.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CostWeights(-1.0, 0.0)
        with pytest.raises(ValueError):
            CostWeights(0.0, 0.0)
        assert TIME_OPTIMAL.w_energy == 0.0
        assert ENERGY_OPTIMAL.w_time == 0.0
        assert EDP_BALANCED.w_time == EDP_BALANCED.w_energy


class TestPlanCoster:
    def test_estimate_positive_and_ordered(self, db):
        plan_small, cost_small = db.estimate_cost(
            "SELECT k FROM t WHERE g = 3"
        )
        plan_big, cost_big = db.estimate_cost(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n"
        )
        assert cost_small.time_s > 0 and cost_small.energy_j > 0
        # More operators over the same scan cost more.
        assert cost_big.weighted(1, 0) > 0

    def test_estimate_tracks_measurement_order(self, db):
        """A cheap query must be estimated cheaper than an expensive
        one, and the estimate should be within 3x of measurement."""
        sut = paper_sut()
        coster = PlanCoster(db.profile, sut)
        cheap_sql = "SELECT k FROM t WHERE k = 17"
        costly_sql = (
            "SELECT g, SUM(k) AS s FROM t GROUP BY g ORDER BY s DESC"
        )
        cheap = coster.cost(db.plan(cheap_sql))
        costly = coster.cost(db.plan(costly_sql))
        assert cheap.time_s < costly.time_s

        result = db.execute(cheap_sql)
        trace = db.trace_for(result)
        measured = sut.run_compiled(trace, db.workload_class)
        assert cheap.time_s == pytest.approx(
            measured.duration_s, rel=2.0
        )
        assert cheap.energy_j == pytest.approx(
            measured.cpu_joules, rel=2.0
        )

    def test_disk_profile_estimates_include_io(self):
        db = Database(commercial_profile(0.01))
        db.create_table(
            TableSchema("u", [ColumnDef("a", DataType.INT64)]),
            {"a": list(range(10_000))},
        )
        db.warm()
        _, mem_cost = Database(mysql_profile()), None
        _, cost = db.estimate_cost("SELECT a FROM u WHERE a > 5")
        # stall + temp I/O terms make disk-profile estimates slower per
        # row than the same pure-CPU work.
        assert cost.time_s > 0

    def test_rank_plans(self, db):
        sut = paper_sut()
        coster = PlanCoster(db.profile, sut)
        plans = [
            db.plan("SELECT k FROM t WHERE k = 17"),
            db.plan("SELECT g, COUNT(*) AS n FROM t GROUP BY g"),
        ]
        ranked = rank_plans(plans, coster, TIME_OPTIMAL)
        assert ranked[0][1].time_s <= ranked[1][1].time_s


class TestLike:
    def test_like_prefix(self, db):
        result = db.execute("SELECT k FROM t WHERE s LIKE 'name_0%'")
        # s in name_00..name_04: all rows match the prefix
        assert result.row_count == 2000

    def test_like_exact_wildcard(self, db):
        result = db.execute("SELECT k FROM t WHERE s LIKE 'name#_03'"
                            .replace("#", ""))
        assert result.row_count == 400  # every 5th of 2000

    def test_like_underscore(self, db):
        result = db.execute("SELECT k FROM t WHERE s LIKE 'name_0_'")
        assert result.row_count == 2000

    def test_not_like(self, db):
        result = db.execute(
            "SELECT k FROM t WHERE s NOT LIKE 'name_00'"
        )
        assert result.row_count == 1600

    def test_like_counts_comparisons(self, db):
        result = db.execute("SELECT k FROM t WHERE s LIKE '%03'")
        assert result.stats.total_comparisons == 2000

    def test_like_round_trip(self):
        from repro.db.sql.ast import Like
        from repro.db.sql.parser import parse_expression
        expr = parse_expression("s LIKE 'abc%'")
        assert isinstance(expr, Like)
        assert parse_expression(expr.to_sql()) == expr

    def test_like_on_numeric_rejected(self, db):
        from repro.db.errors import TypeMismatchError
        with pytest.raises(TypeMismatchError):
            db.execute("SELECT k FROM t WHERE k LIKE '1%'")

    def test_like_regex_chars_escaped(self, db):
        # Dots in a pattern are literals, not regex wildcards.
        result = db.execute("SELECT k FROM t WHERE s LIKE 'name.0.'")
        assert result.row_count == 0
