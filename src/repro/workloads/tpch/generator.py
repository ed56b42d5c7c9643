"""Deterministic TPC-H-shaped data generator.

Follows dbgen's cardinalities and value domains (uniform keys, dates
over 1992-01-01..1998-08-02, ``l_quantity`` uniform over 1..50) with a
seeded numpy RNG, so two calls with the same (scale factor, seed)
produce identical databases.  Foreign keys are dense and referentially
intact; cardinality ratios match the spec, which is all the paper's
workloads rely on ("given the uniform nature of TPC-H, all ten queries
perform the same amount of work").
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.db.engine import Database
from repro.db.schema import Table
from repro.db.types import Column, DataType, date_to_days
from repro.workloads.tpch import schema as sch


def _rng(seed: int, table: str) -> np.random.Generator:
    # zlib.crc32 is stable across processes (unlike ``hash``, which is
    # randomized per interpreter run and would break reproducibility).
    return np.random.default_rng([seed, zlib.crc32(table.encode())])


def _scaled(base: int, scale_factor: float, minimum: int = 1) -> int:
    return max(minimum, int(round(base * scale_factor)))


def _string_column(values: np.ndarray, dictionary: list[str]) -> Column:
    return Column.from_codes(values.astype(np.int32), list(dictionary))


def generate_region() -> Table:
    schema = sch.region_schema()
    return Table(schema, {
        "r_regionkey": Column(DataType.INT64, np.arange(5, dtype=np.int64)),
        "r_name": Column.from_values(DataType.STRING, sch.REGION_NAMES),
    })


def generate_nation() -> Table:
    schema = sch.nation_schema()
    return Table(schema, {
        "n_nationkey": Column(DataType.INT64, np.arange(25, dtype=np.int64)),
        "n_name": Column.from_values(DataType.STRING, sch.NATION_NAMES),
        "n_regionkey": Column(
            DataType.INT64, np.asarray(sch.NATION_REGIONS, dtype=np.int64)
        ),
    })


def generate_supplier(scale_factor: float, seed: int) -> Table:
    n = _scaled(sch.BASE_CARDINALITIES["supplier"], scale_factor)
    rng = _rng(seed, "supplier")
    schema = sch.supplier_schema()
    keys = np.arange(1, n + 1, dtype=np.int64)
    names = [f"Supplier#{k:09d}" for k in keys]
    return Table(schema, {
        "s_suppkey": Column(DataType.INT64, keys),
        "s_name": Column.from_values(DataType.STRING, names),
        "s_nationkey": Column(
            DataType.INT64, rng.integers(0, 25, n, dtype=np.int64)
        ),
        "s_acctbal": Column(
            DataType.FLOAT64, rng.uniform(-999.99, 9999.99, n).round(2)
        ),
    })


def generate_customer(scale_factor: float, seed: int) -> Table:
    n = _scaled(sch.BASE_CARDINALITIES["customer"], scale_factor)
    rng = _rng(seed, "customer")
    schema = sch.customer_schema()
    keys = np.arange(1, n + 1, dtype=np.int64)
    names = [f"Customer#{k:09d}" for k in keys]
    return Table(schema, {
        "c_custkey": Column(DataType.INT64, keys),
        "c_name": Column.from_values(DataType.STRING, names),
        "c_nationkey": Column(
            DataType.INT64, rng.integers(0, 25, n, dtype=np.int64)
        ),
        "c_acctbal": Column(
            DataType.FLOAT64, rng.uniform(-999.99, 9999.99, n).round(2)
        ),
        "c_mktsegment": _string_column(
            rng.integers(0, len(sch.SEGMENTS), n), sch.SEGMENTS
        ),
    })


def generate_part(scale_factor: float, seed: int) -> Table:
    n = _scaled(sch.BASE_CARDINALITIES["part"], scale_factor)
    rng = _rng(seed, "part")
    schema = sch.part_schema()
    brands = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
    types = [
        f"{a} {b} {c}"
        for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                  "PROMO")
        for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                  "BRUSHED")
        for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
    ]
    keys = np.arange(1, n + 1, dtype=np.int64)
    return Table(schema, {
        "p_partkey": Column(DataType.INT64, keys),
        "p_brand": _string_column(
            rng.integers(0, len(brands), n), brands
        ),
        "p_type": _string_column(rng.integers(0, len(types), n), types),
        "p_size": Column(
            DataType.INT64, rng.integers(1, 51, n, dtype=np.int64)
        ),
        "p_retailprice": Column(
            DataType.FLOAT64,
            (900 + (keys % 1000) / 10 + 100 * (keys % 10)).astype(float),
        ),
    })


def generate_partsupp(scale_factor: float, seed: int) -> Table:
    n_part = _scaled(sch.BASE_CARDINALITIES["part"], scale_factor)
    n_supp = _scaled(sch.BASE_CARDINALITIES["supplier"], scale_factor)
    rng = _rng(seed, "partsupp")
    schema = sch.partsupp_schema()
    # Four suppliers per part, as in the spec.
    partkeys = np.repeat(np.arange(1, n_part + 1, dtype=np.int64), 4)
    n = len(partkeys)
    suppkeys = rng.integers(1, n_supp + 1, n, dtype=np.int64)
    return Table(schema, {
        "ps_partkey": Column(DataType.INT64, partkeys),
        "ps_suppkey": Column(DataType.INT64, suppkeys),
        "ps_availqty": Column(
            DataType.INT64, rng.integers(1, 10_000, n, dtype=np.int64)
        ),
        "ps_supplycost": Column(
            DataType.FLOAT64, rng.uniform(1.0, 1000.0, n).round(2)
        ),
    })


def generate_orders(scale_factor: float, seed: int) -> Table:
    n = _scaled(sch.BASE_CARDINALITIES["orders"], scale_factor)
    n_cust = _scaled(sch.BASE_CARDINALITIES["customer"], scale_factor)
    rng = _rng(seed, "orders")
    schema = sch.orders_schema()
    keys = np.arange(1, n + 1, dtype=np.int64)
    date_lo = date_to_days(sch.DATE_MIN)
    date_hi = date_to_days(sch.DATE_MAX)
    return Table(schema, {
        "o_orderkey": Column(DataType.INT64, keys),
        "o_custkey": Column(
            DataType.INT64, rng.integers(1, n_cust + 1, n, dtype=np.int64)
        ),
        "o_orderstatus": _string_column(
            rng.integers(0, len(sch.ORDER_STATUSES), n), sch.ORDER_STATUSES
        ),
        "o_totalprice": Column(
            DataType.FLOAT64, rng.uniform(850.0, 560_000.0, n).round(2)
        ),
        "o_orderdate": Column(
            DataType.DATE,
            rng.integers(date_lo, date_hi + 1, n).astype(np.int32),
        ),
        "o_orderpriority": _string_column(
            rng.integers(0, len(sch.PRIORITIES), n), sch.PRIORITIES
        ),
    })


def generate_lineitem(orders: Table, scale_factor: float,
                      seed: int) -> Table:
    n_supp = _scaled(sch.BASE_CARDINALITIES["supplier"], scale_factor)
    n_part = _scaled(sch.BASE_CARDINALITIES["part"], scale_factor)
    rng = _rng(seed, "lineitem")
    schema = sch.lineitem_schema()
    order_keys = orders.column("o_orderkey").raw()
    order_dates = orders.column("o_orderdate").raw()
    lines_per_order = rng.integers(1, 8, len(order_keys))
    l_orderkey = np.repeat(order_keys, lines_per_order)
    base_date = np.repeat(order_dates, lines_per_order)
    n = len(l_orderkey)
    # 1..c within each order: the global row number minus the number
    # of rows before the order's first line.
    first_line = np.cumsum(lines_per_order) - lines_per_order
    linenumbers = np.arange(1, n + 1) - np.repeat(
        first_line, lines_per_order
    )
    quantity = rng.integers(1, sch.QUANTITY_MAX + 1, n, dtype=np.int64)
    ship_offset = rng.integers(1, 122, n)
    partkeys = rng.integers(1, n_part + 1, n, dtype=np.int64)
    price_base = 900 + (partkeys % 1000) / 10 + 100 * (partkeys % 10)
    return Table(schema, {
        "l_orderkey": Column(DataType.INT64, l_orderkey),
        "l_partkey": Column(DataType.INT64, partkeys),
        "l_suppkey": Column(
            DataType.INT64, rng.integers(1, n_supp + 1, n, dtype=np.int64)
        ),
        "l_linenumber": Column(
            DataType.INT64, linenumbers.astype(np.int64, copy=False)
        ),
        "l_quantity": Column(DataType.INT64, quantity),
        "l_extendedprice": Column(
            DataType.FLOAT64, (quantity * price_base).round(2)
        ),
        "l_discount": Column(
            DataType.FLOAT64, rng.integers(0, 11, n) / 100.0
        ),
        "l_tax": Column(DataType.FLOAT64, rng.integers(0, 9, n) / 100.0),
        "l_returnflag": _string_column(
            rng.integers(0, len(sch.RETURN_FLAGS), n), sch.RETURN_FLAGS
        ),
        "l_linestatus": _string_column(
            rng.integers(0, len(sch.LINE_STATUSES), n), sch.LINE_STATUSES
        ),
        "l_shipdate": Column(
            DataType.DATE, (base_date + ship_offset).astype(np.int32),
        ),
        # Per the spec: commit = order date + 30..90, receipt follows
        # the ship date by 1..30 days.
        "l_commitdate": Column(
            DataType.DATE,
            (base_date + rng.integers(30, 91, n)).astype(np.int32),
        ),
        "l_receiptdate": Column(
            DataType.DATE,
            (base_date + ship_offset
             + rng.integers(1, 31, n)).astype(np.int32),
        ),
        "l_shipmode": _string_column(
            rng.integers(0, len(sch.SHIP_MODES), n), sch.SHIP_MODES
        ),
    })


#: every table, in the order a database registers them
TABLE_NAMES = ("region", "nation", "supplier", "customer", "part",
               "partsupp", "orders", "lineitem")


def generate_tpch(scale_factor: float, seed: int = 0,
                  tables: list[str] | None = None) -> dict[str, Table]:
    """Generate the TPC-H tables at ``scale_factor``.

    ``tables`` restricts generation (e.g. only what Q5 needs); lineitem
    implies orders since line dates derive from order dates.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    wanted = set(TABLE_NAMES if tables is None else tables)
    out: dict[str, Table] = {}
    if "region" in wanted:
        out["region"] = generate_region()
    if "nation" in wanted:
        out["nation"] = generate_nation()
    if "supplier" in wanted:
        out["supplier"] = generate_supplier(scale_factor, seed)
    if "customer" in wanted:
        out["customer"] = generate_customer(scale_factor, seed)
    if "part" in wanted:
        out["part"] = generate_part(scale_factor, seed)
    if "partsupp" in wanted:
        out["partsupp"] = generate_partsupp(scale_factor, seed)
    if "orders" in wanted or "lineitem" in wanted:
        orders = generate_orders(scale_factor, seed)
        if "orders" in wanted:
            out["orders"] = orders
        if "lineitem" in wanted:
            out["lineitem"] = generate_lineitem(orders, scale_factor, seed)
    return out


#: Tables (not table sets) :func:`shared_tables` keeps, least recently
#: used first out: two full sets' worth.  The bound counts tables, so
#: a sweep of lineitem-only loads keeps up to 16 lineitem tables.
TABLE_MEMO_SIZE = 2 * len(TABLE_NAMES)


@lru_cache(maxsize=TABLE_MEMO_SIZE)
def _shared_table(name: str, scale_factor: float, seed: int) -> Table:
    # Generated on its own: a lineitem build derives its dates from a
    # private orders table it does not keep.
    table = generate_tpch(scale_factor, seed, [name])[name]
    for column in table.columns.values():
        column.data.flags.writeable = False
    return table


def shared_tables(scale_factor: float, seed: int = 0,
                  tables: list[str] | None = None) -> dict[str, Table]:
    """This process's one read-only copy of the tables at
    ``(scale_factor, seed)``.

    Generated data is immutable and a function of ``(table,
    scale_factor, seed)`` alone, so every database loaded at the same
    pair registers the same :class:`Table` objects (and shares their
    ANALYZE statistics) instead of generating a private copy.  Tables
    are memoized one by one -- a lineitem-only load neither generates
    nor retains the rest, not even the orders its dates derive from --
    and their arrays are made read-only, so a stray in-place write
    raises instead of corrupting another database's data.
    """
    wanted = set(TABLE_NAMES if tables is None else tables)
    return {name: _shared_table(name, scale_factor, seed)
            for name in TABLE_NAMES if name in wanted}


def load_tpch(db: Database, scale_factor: float, seed: int = 0,
              tables: list[str] | None = None) -> None:
    """Register the (shared, read-only) TPC-H tables into ``db``."""
    for table in shared_tables(scale_factor, seed, tables).values():
        db.register_table(table)


def tpch_database(scale_factor: float, profile=None, seed: int = 0,
                  tables: list[str] | None = None) -> Database:
    """A loaded TPC-H database (public API convenience)."""
    db = Database(profile)
    load_tpch(db, scale_factor, seed, tables)
    # Recorded for run fingerprinting (repro.obs) -- the Database itself
    # is scale-agnostic, but a run's identity is not.
    db.scale_factor = scale_factor
    return db
