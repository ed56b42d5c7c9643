"""OR common-factor extraction, on expressions and on TPC-H data."""

import pytest

from repro.db.plan.logical import factor_common_conjuncts
from repro.db.plan.physical import PhysHashJoin
from repro.db.sql import ast
from repro.db.sql.parser import parse_expression

#: (brand, quantity, size bound) of each Q19-style branch.
BRANCHES = (("Brand#12", 1, 5), ("Brand#23", 10, 10),
            ("Brand#34", 20, 15))


def _branch(brand: str, quantity: int, size_hi: int) -> str:
    return (
        f"p_partkey = l_partkey AND p_brand = '{brand}' "
        f"AND l_quantity >= {quantity} AND l_quantity <= {quantity + 10} "
        f"AND p_size BETWEEN 1 AND {size_hi}"
    )


#: TPC-H Q19-style discounted revenue: an OR whose every branch repeats
#: the join predicate ``p_partkey = l_partkey``, so the planner sees an
#: equi-join only after common-factor extraction.
Q19 = (
    "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM lineitem, part WHERE "
    + " OR ".join(f"({_branch(*b)})" for b in BRANCHES)
)


class TestCommonFactorExtraction:
    def test_factoring_identity(self):
        expr = parse_expression(
            "(a = b AND x > 1) OR (a = b AND y > 2)"
        )
        factored = factor_common_conjuncts(expr)
        conjuncts = ast.conjuncts(factored)
        assert parse_expression("a = b") in conjuncts
        assert len(conjuncts) == 2

    def test_no_common_factor_unchanged(self):
        expr = parse_expression("(x > 1) OR (y > 2)")
        assert factor_common_conjuncts(expr) == expr

    def test_single_disjunct_unchanged(self):
        expr = parse_expression("a = b AND x > 1")
        assert factor_common_conjuncts(expr) == expr

    def test_all_common_drops_or_entirely(self):
        expr = parse_expression("(a = b) OR (a = b)")
        assert factor_common_conjuncts(expr) == parse_expression("a = b")


class TestQ19OnTpch:
    def test_q19_equals_sum_of_branches(self, mysql_db):
        """The factored disjunction returns exactly the sum of its
        (disjoint) branches run separately."""
        total = mysql_db.execute(Q19).scalar()
        branch_sqls = [
            "SELECT SUM(l_extendedprice * (1 - l_discount)) AS r "
            f"FROM lineitem, part WHERE {_branch(*b)}"
            for b in BRANCHES
        ]
        parts = [mysql_db.execute(sql).scalar() for sql in branch_sqls]
        # Branches overlap only if a row satisfies two brands at once --
        # impossible (one brand per part), so the sum matches.
        assert total == pytest.approx(sum(parts), rel=1e-9)

    def test_q19_plan_has_equi_join(self, mysql_db):
        nodes, joins = [mysql_db.plan(Q19)], 0
        while nodes:
            node = nodes.pop()
            joins += isinstance(node, PhysHashJoin)
            nodes.extend(node.children())
        assert joins == 1
