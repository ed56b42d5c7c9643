"""TPC-H Q10: a four-way join, grouped, ordered and limited."""

import pytest

from repro.db.profiles import mysql_profile
from repro.db.engine import Database
from repro.workloads.tpch.generator import load_tpch


def q10(limit: int = 20) -> str:
    """Returned-item reporting: customers who returned items."""
    return (
        "SELECT c_custkey, c_name, "
        "SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        "c_acctbal, n_name "
        "FROM customer, orders, lineitem, nation "
        "WHERE c_custkey = o_custkey "
        "AND l_orderkey = o_orderkey "
        "AND o_orderdate >= DATE '1993-10-01' "
        "AND o_orderdate < DATE '1994-01-01' "
        "AND l_returnflag = 'R' "
        "AND c_nationkey = n_nationkey "
        "GROUP BY c_custkey, c_name, c_acctbal, n_name "
        "ORDER BY revenue DESC "
        f"LIMIT {limit}"
    )


@pytest.fixture(scope="module")
def full_db() -> Database:
    db = Database(mysql_profile())
    load_tpch(db, 0.01, seed=0)
    return db


class TestQ10:
    def test_executes_and_limits(self, full_db):
        result = full_db.execute(q10())
        assert result.row_count <= 20
        assert result.names == [
            "c_custkey", "c_name", "revenue", "c_acctbal", "n_name",
        ]

    def test_revenue_descending(self, full_db):
        revenues = [r[2] for r in full_db.execute(q10()).rows()]
        assert revenues == sorted(revenues, reverse=True)

    def test_only_returned_items_counted(self, full_db):
        """Every revenue row stems from l_returnflag = 'R' lines."""
        result = full_db.execute(q10(limit=5))
        li = full_db.catalog.table("lineitem")
        orders = full_db.catalog.table("orders")
        o_cust = dict(zip(orders.column("o_orderkey").raw().tolist(),
                          orders.column("o_custkey").raw().tolist()))
        flags = li.column("l_returnflag")
        flag_r = flags.code_for("R")
        custkeys_with_r = {
            o_cust[ok]
            for ok, code in zip(li.column("l_orderkey").raw().tolist(),
                                flags.raw().tolist())
            if code == flag_r
        }
        for row in result.rows():
            assert row[0] in custkeys_with_r

