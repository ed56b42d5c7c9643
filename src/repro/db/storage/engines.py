"""Storage engines: memory (MySQL memory-engine-like) and disk (row store).

A storage engine answers table scans with column data and *records the
I/O the scan implied* into the query's :class:`ExecutionStats`:

* :class:`MemoryEngine` keeps everything in RAM -- scans cost CPU only.
  This is the configuration the paper uses for MySQL "to stress the CPU".
* :class:`DiskEngine` lays tables out as 8 KB row-store pages behind an
  LRU buffer pool.  Cold scans generate sequential reads; partially
  cached scans generate a mix of short random runs and long sequential
  runs; spills (hash join/sort temp files) generate sequential
  write+read traffic.  This is the commercial-DBMS configuration, whose
  warm runs still show disk activity (paper Sec. 3.5).
"""

from __future__ import annotations

from repro.db.errors import ExecutionError
from repro.db.exec.stats import ExecutionStats
from repro.db.schema import Table
from repro.db.storage.buffer import BufferPool
from repro.db.storage.pages import (
    PAGE_SIZE_BYTES,
    SEQUENTIAL_RUN_BYTES,
    pages_for,
)
from repro.db.types import Column
from repro.hardware.trace import DiskAccess


class StorageEngine:
    """Interface: scan tables and account for the implied I/O."""

    def scan(self, table: Table, stats: ExecutionStats
             ) -> dict[str, Column]:
        raise NotImplementedError

    def spill(self, bytes_total: float, stats: ExecutionStats,
              label: str = "spill") -> None:
        """Write ``bytes_total`` of temp data and read it back."""
        raise NotImplementedError

    @property
    def is_persistent(self) -> bool:
        raise NotImplementedError


class MemoryEngine(StorageEngine):
    """All tables resident in RAM; scans are pure CPU."""

    def scan(self, table: Table, stats: ExecutionStats
             ) -> dict[str, Column]:
        return table.columns

    def spill(self, bytes_total: float, stats: ExecutionStats,
              label: str = "spill") -> None:
        raise ExecutionError(
            "memory engine cannot spill; raise work_mem or use disk engine"
        )

    @property
    def is_persistent(self) -> bool:
        return False


class DiskEngine(StorageEngine):
    """Row-store pages behind a shared LRU buffer pool."""

    def __init__(self, buffer_pool: BufferPool):
        self.buffer_pool = buffer_pool

    @property
    def is_persistent(self) -> bool:
        return True

    def table_pages(self, table: Table) -> int:
        return pages_for(table.row_count, table.schema.row_width_bytes)

    def scan(self, table: Table, stats: ExecutionStats
             ) -> dict[str, Column]:
        """Scan the table, recording buffer misses as disk reads.

        A row store reads *all* columns regardless of the projection, so
        the page count depends only on the table.  Consecutive missing
        pages coalesce into runs; long runs transfer sequentially, short
        runs pay a random access each.
        """
        miss_runs = self.buffer_pool.scan_pages(
            table.name, self.table_pages(table)
        )
        self._record_runs(miss_runs, table.name, stats)
        return table.columns

    #: Cold table scans issue synchronous chunked reads (no readahead
    #: after a restart -- the behaviour behind the paper's 3x-slower
    #: cold run), in chunks of this size.
    COLD_CHUNK_BYTES = 224 * 1024
    #: The DBMS processes pages while the cold scan streams in, so the
    #: CPU overlap duty is higher than for background temp I/O.
    COLD_SCAN_CPU_OVERLAP = 0.28

    def _record_runs(self, miss_runs: list[int], table_name: str,
                     stats: ExecutionStats) -> None:
        chunk_bytes = 0.0
        chunk_ops = 0
        random_runs = 0
        random_bytes = 0.0
        for run in miss_runs:
            run_bytes = run * PAGE_SIZE_BYTES
            if run_bytes >= SEQUENTIAL_RUN_BYTES:
                chunk_bytes += run_bytes
                chunk_ops += max(1, round(run_bytes / self.COLD_CHUNK_BYTES))
            else:
                random_runs += 1
                random_bytes += run_bytes
        if chunk_ops:
            stats.record_io(DiskAccess(
                num_ops=chunk_ops,
                bytes_total=chunk_bytes,
                sequential=False,
                cpu_overlap_utilization=self.COLD_SCAN_CPU_OVERLAP,
                label=f"scan:{table_name}",
            ))
        if random_runs:
            stats.record_io(DiskAccess(
                num_ops=random_runs,
                bytes_total=random_bytes,
                sequential=False,
                label=f"scan:{table_name}",
            ))

    def warm(self, table: Table) -> None:
        """Preload every page of ``table`` into the buffer pool."""
        throwaway = ExecutionStats()
        self.scan(table, throwaway)

    def spill(self, bytes_total: float, stats: ExecutionStats,
              label: str = "spill") -> None:
        """Temp-file traffic: sequential write followed by read-back."""
        if bytes_total <= 0:
            return
        ops = max(1, int(bytes_total // SEQUENTIAL_RUN_BYTES))
        stats.record_io(DiskAccess(
            num_ops=ops, bytes_total=bytes_total, sequential=True,
            write=True, label=f"{label}:write",
        ))
        stats.record_io(DiskAccess(
            num_ops=ops, bytes_total=bytes_total, sequential=True,
            write=False, label=f"{label}:read",
        ))
