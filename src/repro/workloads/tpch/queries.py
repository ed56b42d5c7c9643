"""TPC-H queries: Q5 (the paper's PVC workload), plus Q1 and Q6.

The paper runs ten Q5 instances per workload: regions ASIA and AMERICA
crossed with all five one-year order-date ranges (1993..1997), giving
non-overlapping predicates of equal work.  Q1 (scan + wide aggregation)
and Q6 (selection + sum) are the contrasting plan shapes the
energy-aware optimizer example ranks.
"""

from __future__ import annotations

Q5_REGIONS = ("ASIA", "AMERICA")
Q5_YEARS = (1993, 1994, 1995, 1996, 1997)


def q5(region: str = "ASIA", date_from: str = "1994-01-01",
       date_to: str = "1995-01-01") -> str:
    """TPC-H Q5: local supplier volume (six-way join + group by)."""
    return (
        "SELECT n_name, "
        "SUM(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM customer, orders, lineitem, supplier, nation, region "
        "WHERE c_custkey = o_custkey "
        "AND l_orderkey = o_orderkey "
        "AND l_suppkey = s_suppkey "
        "AND c_nationkey = s_nationkey "
        "AND s_nationkey = n_nationkey "
        "AND n_regionkey = r_regionkey "
        f"AND r_name = '{region}' "
        f"AND o_orderdate >= DATE '{date_from}' "
        f"AND o_orderdate < DATE '{date_to}' "
        "GROUP BY n_name "
        "ORDER BY revenue DESC"
    )


def q5_paper_workload() -> list[str]:
    """The paper's ten-query workload (2 regions x 5 date ranges)."""
    queries = []
    for region in Q5_REGIONS:
        for year in Q5_YEARS:
            queries.append(
                q5(region, f"{year}-01-01", f"{year + 1}-01-01")
            )
    return queries


def q1(delta_days: int = 90) -> str:
    """TPC-H Q1: pricing summary report (scan + wide aggregation)."""
    return (
        "SELECT l_returnflag, l_linestatus, "
        "SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base_price, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
        "AS sum_charge, "
        "AVG(l_quantity) AS avg_qty, "
        "AVG(l_extendedprice) AS avg_price, "
        "AVG(l_discount) AS avg_disc, "
        "COUNT(*) AS count_order "
        "FROM lineitem "
        "WHERE l_shipdate <= DATE '1998-09-02' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    )


def q6(year: int = 1994, discount: float = 0.06,
       quantity: int = 24) -> str:
    """TPC-H Q6: forecasting revenue change (pure selection + sum)."""
    return (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue "
        "FROM lineitem "
        f"WHERE l_shipdate >= DATE '{year}-01-01' "
        f"AND l_shipdate < DATE '{year + 1}-01-01' "
        f"AND l_discount BETWEEN {discount - 0.01:.2f} "
        f"AND {discount + 0.01:.2f} "
        f"AND l_quantity < {quantity}"
    )


#: Tables Q5 touches -- lets benches generate only what they need.
Q5_TABLES = [
    "region", "nation", "supplier", "customer", "orders", "lineitem",
]
