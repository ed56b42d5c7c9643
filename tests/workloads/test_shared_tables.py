"""One generated table set per ``(scale_factor, seed)`` per process.

Exact counts and identities, no timings: what is shared between
databases (tables and their statistics), what is not (profile, buffer
pool, generation, caches), and that sharing moves no simulated number.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.calibration import fit, targets
from repro.db import catalog
from repro.db.profiles import commercial_profile, mysql_profile
from repro.workloads.tpch import generator
from repro.workloads.tpch.generator import (
    TABLE_MEMO_SIZE,
    TABLE_NAMES,
    generate_tpch,
    shared_tables,
    tpch_database,
)
from repro.workloads.tpch.queries import Q5_TABLES, q5

SF = 0.005


@pytest.fixture()
def memo(monkeypatch):
    """An empty table memo for the test, the process's own afterwards."""
    fresh = lru_cache(maxsize=TABLE_MEMO_SIZE)(
        generator._shared_table.__wrapped__
    )
    monkeypatch.setattr(generator, "_shared_table", fresh)
    return fresh


@pytest.fixture()
def calls(monkeypatch):
    """Counts of table generations and statistics scans, by table."""
    counts: Counter = Counter()

    def counted(module, name, label):
        """Count calls of ``module.name`` under ``label(*call args)``."""
        real = getattr(module, name)

        def wrapper(*args):
            counts[label(*args)] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(generator, "generate_lineitem", lambda *_: "generate lineitem")
    counted(generator, "generate_orders", lambda *_: "generate orders")
    counted(catalog, "_collect_stats",
            lambda table: f"analyze {table.name}")
    return counts


def paper_figures_rep(seed: int = 0) -> dict[str, str]:
    """Every paper data point, as ``benchmarks/e2e`` runs them."""
    groups = [
        fit.table1_residuals(),
        fit.pvc_residuals("commercial", SF, seed=seed),
        fit.pvc_residuals("mysql", SF, seed=seed),
        fit.fig5_residuals(),
        fit.warm_cold_residuals(SF, seed=seed),
        fit.qed_residuals(SF, seed=seed,
                          batch_sizes=tuple(targets.QED_BATCH_SIZES)),
    ]
    return {r.label: float(r.measured).hex()
            for residuals in groups for r in residuals}


class TestOneTableSetPerProcess:
    def test_a_rep_generates_and_analyzes_once_then_never(self, memo,
                                                          calls):
        paper_figures_rep()
        # four databases (two PVC profiles, warm/cold, QED) over one
        # generated set; QED's lineitem is the PVC sweep's.  Orders is
        # generated twice: once to keep, once for lineitem's dates.
        assert calls == {
            "generate lineitem": 1, "generate orders": 2,
            **{f"analyze {name}": 1 for name in Q5_TABLES},
        }
        calls.clear()
        paper_figures_rep()
        assert calls == {}

    def test_residuals_equal_a_private_table_run(self, memo, monkeypatch):
        shared = paper_figures_rep(seed=1)
        assert len(shared) == 47
        monkeypatch.setattr(generator, "shared_tables", generate_tpch)
        memo.cache_clear()
        private = paper_figures_rep(seed=1)
        assert memo.cache_info().misses == 0  # nothing went through it
        assert private == shared

    def test_generate_tpch_stays_a_pure_generator(self, memo):
        a = generate_tpch(SF, seed=0, tables=["orders"])["orders"]
        b = generate_tpch(SF, seed=0, tables=["orders"])["orders"]
        assert memo.cache_info().currsize == 0
        assert a is not b
        assert a.column("o_custkey").raw().flags.writeable


class TestSharedIsOnlyTheData:
    def test_same_tables_separate_everything_else(self, memo):
        one = tpch_database(SF, commercial_profile(SF), tables=Q5_TABLES)
        two = tpch_database(SF, commercial_profile(SF), tables=Q5_TABLES)
        other_profile = tpch_database(SF, mysql_profile(),
                                      tables=["lineitem"])
        for name in Q5_TABLES:
            assert one.catalog.table(name) is two.catalog.table(name)
            assert one.catalog.stats(name) is two.catalog.stats(name)
        assert (other_profile.catalog.table("lineitem")
                is one.catalog.table("lineitem"))
        assert one.catalog is not two.catalog
        assert one.buffer_pool is not two.buffer_pool
        assert one.profile is not two.profile

    def test_pool_and_catalog_changes_stay_in_their_database(self, memo):
        one = tpch_database(SF, commercial_profile(SF), tables=Q5_TABLES)
        two = tpch_database(SF, commercial_profile(SF), tables=Q5_TABLES)
        two.warm()
        sql = q5()
        before = two.execute(sql)
        generation = two.generation
        resident = two.buffer_pool.version, len(two.buffer_pool)
        plan_cache = two.plan_cache_hits, two.plan_cache_misses

        one.warm()
        one.cool()
        one.execute(sql)  # cold: fills one's pool only
        one.drop_table("lineitem")

        assert two.generation == generation
        assert (two.buffer_pool.version, len(two.buffer_pool)) == resident
        assert (two.plan_cache_hits, two.plan_cache_misses) == plan_cache
        assert two.catalog.has_table("lineitem")
        after = two.execute(sql)
        assert after.rows() == before.rows()
        assert after.stats.io_log == before.stats.io_log
        assert two.plan_cache_hits == plan_cache[0] + 1

    def test_writing_into_a_shared_array_raises(self, memo):
        db = tpch_database(SF, mysql_profile(), tables=["lineitem"])
        for column in db.catalog.table("lineitem").columns.values():
            with pytest.raises(ValueError, match="read-only"):
                column.raw()[0] = 0
        # a filter-free projection hands the stored array itself out
        result = db.execute("SELECT l_quantity FROM lineitem")
        with pytest.raises(ValueError, match="read-only"):
            result.column("l_quantity").raw()[:] = 0


class TestTheMemoIsBounded:
    def test_across_scale_factors(self, memo):
        factors = [0.001, 0.002, 0.003, 0.004, 0.005]
        for sf in factors:
            tpch_database(sf, mysql_profile())
            assert memo.cache_info().currsize <= TABLE_MEMO_SIZE
        assert memo.cache_info().currsize == TABLE_MEMO_SIZE
        # least recently used out: the last two full sets remain
        misses = memo.cache_info().misses
        for sf in factors[-2:]:
            shared_tables(sf)
        assert memo.cache_info().misses == misses

    def test_a_hit_refreshes_its_tables(self, memo, calls):
        first = shared_tables(0.001)
        shared_tables(0.002)
        assert shared_tables(0.001)["orders"] is first["orders"]
        shared_tables(0.003)  # evicts 0.002, the least recently used
        calls.clear()
        assert shared_tables(0.001)["lineitem"] is first["lineitem"]
        assert calls == {}

    def test_lineitem_only_build_retains_nothing_else(self, memo, calls):
        db = tpch_database(SF, mysql_profile(), tables=["lineitem"])
        assert memo.cache_info().currsize == 1
        assert db.catalog.table_names == ["lineitem"]
        assert calls == {"generate lineitem": 1, "generate orders": 1,
                         "analyze lineitem": 1}

    def test_tables_are_memoized_one_by_one(self, memo, calls):
        shared_tables(SF, tables=["lineitem"])
        calls.clear()
        tables = shared_tables(SF, tables=Q5_TABLES)
        assert list(tables) == [n for n in TABLE_NAMES if n in Q5_TABLES]
        assert calls["generate lineitem"] == 0  # reused

    def test_seed_and_scale_factor_key_the_memo(self, memo):
        a = shared_tables(SF, seed=0, tables=["orders"])["orders"]
        b = shared_tables(SF, seed=1, tables=["orders"])["orders"]
        assert a is not b
        assert not np.array_equal(a.column("o_custkey").raw(),
                                  b.column("o_custkey").raw())

    def test_invalid_scale_factor_still_raises(self, memo):
        with pytest.raises(ValueError):
            tpch_database(0.0)
        assert memo.cache_info().currsize == 0
