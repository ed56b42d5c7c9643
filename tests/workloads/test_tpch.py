"""TPC-H generator: determinism, integrity, cardinalities, queries."""

import numpy as np
import pytest

from repro.workloads.tpch import schema as sch
from repro.workloads.tpch.generator import (
    generate_lineitem,
    generate_orders,
    generate_tpch,
)
from repro.workloads.tpch.queries import (
    Q5_TABLES,
    q1,
    q5,
    q5_paper_workload,
    q6,
)


class TestGeneratorShape:
    def test_cardinalities(self, tpch_tables):
        sf = 0.01
        assert tpch_tables["region"].row_count == 5
        assert tpch_tables["nation"].row_count == 25
        assert tpch_tables["supplier"].row_count == 100
        assert tpch_tables["customer"].row_count == 1500
        assert tpch_tables["orders"].row_count == 15_000
        assert tpch_tables["part"].row_count == 2000
        assert tpch_tables["partsupp"].row_count == 8000
        # ~4 lines per order on average
        ratio = (
            tpch_tables["lineitem"].row_count
            / tpch_tables["orders"].row_count
        )
        assert 3.5 < ratio < 4.5

    def test_determinism(self, tpch_tables):
        again = generate_tpch(0.01, seed=0)
        for name, table in tpch_tables.items():
            other = again[name]
            assert other.row_count == table.row_count
            for col in table.schema.column_names:
                assert np.array_equal(
                    other.column(col).raw(), table.column(col).raw()
                ), f"{name}.{col}"

    def test_seed_changes_data(self):
        a = generate_tpch(0.01, seed=0, tables=["orders"])["orders"]
        b = generate_tpch(0.01, seed=1, tables=["orders"])["orders"]
        assert not np.array_equal(
            a.column("o_custkey").raw(), b.column("o_custkey").raw()
        )

    def test_restricted_tables(self):
        only = generate_tpch(0.01, tables=["lineitem"])
        assert set(only) == {"lineitem"}

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            generate_tpch(0.0)


class TestIntegrity:
    def test_foreign_keys(self, tpch_tables):
        nation_keys = set(
            tpch_tables["nation"].column("n_nationkey").raw().tolist()
        )
        assert set(
            tpch_tables["supplier"].column("s_nationkey").raw().tolist()
        ) <= nation_keys
        assert set(
            tpch_tables["customer"].column("c_nationkey").raw().tolist()
        ) <= nation_keys
        order_keys = set(
            tpch_tables["orders"].column("o_orderkey").raw().tolist()
        )
        assert set(
            tpch_tables["lineitem"].column("l_orderkey").raw().tolist()
        ) <= order_keys
        cust_keys = set(
            tpch_tables["customer"].column("c_custkey").raw().tolist()
        )
        assert set(
            tpch_tables["orders"].column("o_custkey").raw().tolist()
        ) <= cust_keys

    def test_nation_region_assignment(self, tpch_tables):
        regions = tpch_tables["nation"].column("n_regionkey").raw()
        counts = np.bincount(regions, minlength=5)
        assert list(counts) == [5, 5, 5, 5, 5]

    def test_quantity_domain(self, tpch_tables):
        qty = tpch_tables["lineitem"].column("l_quantity").raw()
        assert qty.min() >= 1
        assert qty.max() <= sch.QUANTITY_MAX

    def test_quantity_roughly_uniform(self, tpch_tables):
        """Each value ~2% of rows: the QED workload's selectivity."""
        qty = tpch_tables["lineitem"].column("l_quantity").raw()
        counts = np.bincount(qty, minlength=51)[1:]
        fractions = counts / len(qty)
        assert fractions.min() > 0.01
        assert fractions.max() < 0.03

    def test_order_dates_in_domain(self, tpch_tables):
        from repro.db.types import date_to_days
        dates = tpch_tables["orders"].column("o_orderdate").raw()
        assert dates.min() >= date_to_days(sch.DATE_MIN)
        assert dates.max() <= date_to_days(sch.DATE_MAX)

    def test_shipdate_after_orderdate(self):
        orders = generate_orders(0.01, seed=0)
        lineitem = generate_lineitem(orders, 0.01, seed=0)
        order_dates = dict(zip(
            orders.column("o_orderkey").raw().tolist(),
            orders.column("o_orderdate").raw().tolist(),
        ))
        ship = lineitem.column("l_shipdate").raw()
        keys = lineitem.column("l_orderkey").raw()
        for i in range(0, len(ship), 997):  # sample
            assert ship[i] > order_dates[keys[i]]


class TestQueries:
    def test_paper_workload_is_ten_nonoverlapping(self):
        queries = q5_paper_workload()
        assert len(queries) == 10
        assert len(set(queries)) == 10
        assert sum("'ASIA'" in q for q in queries) == 5
        assert sum("'AMERICA'" in q for q in queries) == 5

    def test_q5_executes_and_groups_by_nation(self, mysql_db):
        result = mysql_db.execute(q5())
        assert result.names == ["n_name", "revenue"]
        assert 0 < result.row_count <= 5
        revenues = [r[1] for r in result.rows()]
        assert revenues == sorted(revenues, reverse=True)
        nations = {r[0] for r in result.rows()}
        asia = {
            sch.NATION_NAMES[i] for i in range(25)
            if sch.NATION_REGIONS[i] == 2
        }
        assert nations <= asia

    def test_q5_matches_manual_computation(self, mysql_db, tpch_tables):
        """Cross-check Q5 revenue against a pandas-free manual join."""
        result = mysql_db.execute(
            q5("ASIA", "1994-01-01", "1995-01-01")
        )
        got = {name: rev for name, rev in result.rows()}

        from repro.db.types import date_to_days
        li = tpch_tables["lineitem"]
        orders = tpch_tables["orders"]
        cust = tpch_tables["customer"]
        supp = tpch_tables["supplier"]
        nation = tpch_tables["nation"]
        lo = date_to_days("1994-01-01")
        hi = date_to_days("1995-01-01")
        o_date = dict(zip(orders.column("o_orderkey").raw().tolist(),
                          orders.column("o_orderdate").raw().tolist()))
        o_cust = dict(zip(orders.column("o_orderkey").raw().tolist(),
                          orders.column("o_custkey").raw().tolist()))
        c_nat = dict(zip(cust.column("c_custkey").raw().tolist(),
                         cust.column("c_nationkey").raw().tolist()))
        s_nat = dict(zip(supp.column("s_suppkey").raw().tolist(),
                         supp.column("s_nationkey").raw().tolist()))
        asia_nations = {
            i for i in range(25) if sch.NATION_REGIONS[i] == 2
        }
        names = nation.column("n_name")
        expected: dict[str, float] = {}
        lk = li.column("l_orderkey").raw()
        ls = li.column("l_suppkey").raw()
        lp = li.column("l_extendedprice").raw()
        ld = li.column("l_discount").raw()
        for i in range(li.row_count):
            ok = lk[i]
            if not lo <= o_date[ok] < hi:
                continue
            snat = s_nat[ls[i]]
            if snat not in asia_nations:
                continue
            if c_nat[o_cust[ok]] != snat:
                continue
            name = names.dictionary[names.data[
                np.flatnonzero(
                    tpch_tables["nation"].column("n_nationkey").raw()
                    == snat
                )[0]
            ]]
            expected[name] = expected.get(name, 0.0) + lp[i] * (1 - ld[i])
        assert set(got) == set(expected)
        for name in expected:
            assert got[name] == pytest.approx(expected[name], rel=1e-9)

    def test_q1_q6_execute(self, mysql_db):
        r1 = mysql_db.execute(q1())
        assert r1.row_count >= 1
        assert "sum_qty" in r1.names
        r6 = mysql_db.execute(q6())
        assert r6.row_count == 1

    def test_q5_tables_list(self):
        assert "lineitem" in Q5_TABLES and "part" not in Q5_TABLES
