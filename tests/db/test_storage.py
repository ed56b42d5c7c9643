"""Buffer pool and storage engines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.errors import ExecutionError
from repro.db.exec.stats import ExecutionStats
from repro.db.schema import ColumnDef, Table, TableSchema
from repro.db.storage.buffer import BufferPool
from repro.db.storage.engines import DiskEngine, MemoryEngine
from repro.db.storage.pages import PAGE_SIZE_BYTES, pages_for
from repro.db.types import DataType


class TestPages:
    def test_pages_for(self):
        assert pages_for(0, 100) == 0
        assert pages_for(1, 100) == 1
        rows_per_page = PAGE_SIZE_BYTES // 100
        assert pages_for(rows_per_page, 100) == 1
        assert pages_for(rows_per_page + 1, 100) == 2

    def test_wide_rows(self):
        assert pages_for(10, PAGE_SIZE_BYTES * 2) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            pages_for(-1, 10)
        with pytest.raises(ValueError):
            pages_for(1, 0)


class TestBufferPool:
    def test_hit_after_miss(self):
        pool = BufferPool(10 * PAGE_SIZE_BYTES)
        assert pool.access(("t", 0)) is False
        assert pool.access(("t", 0)) is True
        assert pool.hits == 1 and pool.misses == 1

    def test_capacity_enforced(self):
        pool = BufferPool(3 * PAGE_SIZE_BYTES)
        for i in range(5):
            pool.access(("t", i))
        assert len(pool) == 3
        assert pool.evictions == 2

    def test_lru_eviction_order(self):
        pool = BufferPool(2 * PAGE_SIZE_BYTES)
        pool.access(("t", 0))
        pool.access(("t", 1))
        pool.access(("t", 0))  # 0 is now most recent
        pool.access(("t", 2))  # evicts 1
        assert pool.contains(("t", 0))
        assert not pool.contains(("t", 1))

    def test_evict_table(self):
        pool = BufferPool(10 * PAGE_SIZE_BYTES)
        pool.access(("a", 0))
        pool.access(("b", 0))
        assert pool.evict_table("a") == 1
        assert pool.contains(("b", 0))

    def test_clear(self):
        pool = BufferPool(10 * PAGE_SIZE_BYTES)
        pool.access(("t", 0))
        pool.clear()
        assert len(pool) == 0

    @given(st.lists(st.integers(0, 20), max_size=100))
    def test_never_exceeds_capacity(self, accesses):
        pool = BufferPool(5 * PAGE_SIZE_BYTES)
        for page in accesses:
            pool.access(("t", page))
        assert len(pool) <= 5
        assert pool.hits + pool.misses == len(accesses)

    def test_zero_capacity(self):
        pool = BufferPool(0)
        assert pool.access(("t", 0)) is False
        assert pool.access(("t", 0)) is False


def scan_by_page(pool: BufferPool, table: str, n_pages: int) -> list[int]:
    """The per-page walk ``DiskEngine.scan`` used to make: one
    ``access`` per page, coalescing consecutive misses into runs."""
    miss_runs: list[int] = []
    run = 0
    for index in range(n_pages):
        hit = pool.access((table, index))
        if hit:
            if run:
                miss_runs.append(run)
                run = 0
        else:
            run += 1
    if run:
        miss_runs.append(run)
    return miss_runs


def _pool_state(pool: BufferPool) -> tuple:
    return (list(pool._pages), pool.hits, pool.misses, pool.evictions,
            pool.version)


class TestScanPages:
    """``BufferPool.scan_pages`` is the per-page ``access`` loop."""

    def _same(self, capacity: int, steps) -> None:
        fast = BufferPool(capacity * PAGE_SIZE_BYTES)
        slow = BufferPool(capacity * PAGE_SIZE_BYTES)
        for step in steps:
            if step == "clear":
                fast.clear()
                slow.clear()
                continue
            table, n_pages = step
            assert fast.scan_pages(table, n_pages) == scan_by_page(
                slow, table, n_pages)
            assert _pool_state(fast) == _pool_state(slow)

    @pytest.mark.parametrize("capacity,steps", [
        (40, [("t", 30), ("t", 30)]),                   # cold, then warm
        (40, [("t", 30), "clear", ("t", 30)]),          # cold again
        (40, [("t", 10), ("u", 25), ("t", 20)]),        # partly resident
        (12, [("t", 30), ("t", 30), ("u", 5), ("t", 30)]),  # pool < table
        (0, [("t", 5), ("t", 5)]),                      # no pool at all
    ], ids=["warm", "cold", "partly-resident", "smaller-than-table",
            "zero-capacity"])
    def test_named_states(self, capacity, steps):
        self._same(capacity, steps)

    @given(
        capacity=st.integers(0, 24),
        steps=st.lists(st.one_of(
            st.just("clear"),
            st.tuples(st.sampled_from("abc"), st.integers(0, 30)),
        ), min_size=1, max_size=8),
    )
    @settings(max_examples=200, derandomize=True, database=None)
    def test_drawn_scan_sequences(self, capacity, steps):
        self._same(capacity, steps)


def _table(rows: int = 5000) -> Table:
    schema = TableSchema("t", [
        ColumnDef("k", DataType.INT64),
        ColumnDef("v", DataType.FLOAT64),
    ])
    return Table.from_arrays(schema, {
        "k": list(range(rows)), "v": [float(i) for i in range(rows)],
    })


class TestMemoryEngine:
    def test_scan_no_io(self):
        engine = MemoryEngine()
        stats = ExecutionStats()
        cols = engine.scan(_table(), stats)
        assert "k" in cols
        assert stats.io_log == []

    def test_spill_rejected(self):
        with pytest.raises(ExecutionError):
            MemoryEngine().spill(100, ExecutionStats())

    def test_not_persistent(self):
        assert MemoryEngine().is_persistent is False


class TestDiskEngine:
    def test_cold_scan_reads_all_pages(self):
        table = _table()
        engine = DiskEngine(BufferPool(100 * 1024 * 1024))
        stats = ExecutionStats()
        engine.scan(table, stats)
        total = sum(a.bytes_total for a in stats.io_log)
        assert total == pytest.approx(
            engine.table_pages(table) * PAGE_SIZE_BYTES
        )

    def test_warm_scan_no_io(self):
        table = _table()
        engine = DiskEngine(BufferPool(100 * 1024 * 1024))
        engine.warm(table)
        stats = ExecutionStats()
        engine.scan(table, stats)
        assert stats.io_log == []

    def test_undersized_pool_rereads(self):
        table = _table()
        pages = engine_pages = None
        engine = DiskEngine(BufferPool(2 * PAGE_SIZE_BYTES))
        stats = ExecutionStats()
        engine.scan(table, stats)
        stats2 = ExecutionStats()
        engine.scan(table, stats2)
        assert sum(a.bytes_total for a in stats2.io_log) > 0

    def test_cold_scan_uses_chunked_reads(self):
        """Cold scans are chunked synchronous reads (paper's 3x cold)."""
        table = _table(rows=200_000)  # ~ a few MB of pages
        engine = DiskEngine(BufferPool(100 * 1024 * 1024))
        stats = ExecutionStats()
        engine.scan(table, stats)
        access = stats.io_log[0]
        assert access.sequential is False
        assert access.num_ops > 1
        assert access.cpu_overlap_utilization == pytest.approx(
            DiskEngine.COLD_SCAN_CPU_OVERLAP
        )

    def test_spill_writes_then_reads(self):
        engine = DiskEngine(BufferPool(10 * PAGE_SIZE_BYTES))
        stats = ExecutionStats()
        engine.spill(1e6, stats, label="hash")
        labels = [a.label for a in stats.io_log]
        assert labels == ["hash:write", "hash:read"]
        assert stats.io_log[0].write is True
        assert stats.io_log[1].write is False

    def test_zero_spill_noop(self):
        engine = DiskEngine(BufferPool(10 * PAGE_SIZE_BYTES))
        stats = ExecutionStats()
        engine.spill(0, stats)
        assert stats.io_log == []
