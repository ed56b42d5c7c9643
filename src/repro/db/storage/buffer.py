"""LRU buffer pool.

The pool decides which table pages are memory-resident: a warm scan hits
entirely in the pool while a cold scan misses everywhere and pays disk
time -- the difference behind the paper's Sec. 3.5 warm/cold comparison
(48.5 s / 1228.7 J CPU warm versus 156 s / 2146 J CPU cold).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.db.storage.pages import PAGE_SIZE_BYTES


class BufferPool:
    """Page-granular LRU cache."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_pages = capacity_bytes // PAGE_SIZE_BYTES
        self._pages: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Monotone counter of *content* changes (pages admitted or
        #: dropped; pure LRU reordering does not count).  Caches keyed
        #: on it -- plans, execution traces -- self-invalidate whenever
        #: the resident page set, and therefore a query's I/O work,
        #: changes.
        self.version = 0

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * PAGE_SIZE_BYTES

    def access(self, key: tuple[str, int]) -> bool:
        """Touch a page; returns True on hit, False on miss (page loaded)."""
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._admit(key)
        return False

    def scan_pages(self, table: str, n_pages: int) -> list[int]:
        """Touch pages ``0..n_pages - 1`` of ``table`` in order; returns
        the lengths of the runs of consecutive misses.

        The same walk as ``access`` on each page in turn -- same LRU
        order, counters and version -- in one loop that calls no Python
        function per page (a warm scan of a table is a hot path of the
        disk engine).
        """
        pages = self._pages
        capacity = self.capacity_pages
        runs: list[int] = []
        run = hits = admitted = evicted = 0
        for index in range(n_pages):
            key = (table, index)
            if key in pages:
                pages.move_to_end(key)
                hits += 1
                if run:
                    runs.append(run)
                    run = 0
                continue
            run += 1
            if capacity:
                while len(pages) >= capacity:
                    pages.popitem(last=False)
                    evicted += 1
                pages[key] = None
                admitted += 1
        if run:
            runs.append(run)
        self.hits += hits
        self.misses += n_pages - hits
        self.evictions += evicted
        self.version += admitted
        return runs

    def contains(self, key: tuple[str, int]) -> bool:
        return key in self._pages

    def _admit(self, key: tuple[str, int]) -> None:
        if self.capacity_pages == 0:
            return
        while len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
            self.evictions += 1
        self._pages[key] = None
        self.version += 1

    def evict_table(self, table: str) -> int:
        """Drop every page of ``table``; returns the number dropped."""
        victims = [k for k in self._pages if k[0] == table]
        for key in victims:
            del self._pages[key]
        if victims:
            self.version += 1
        return len(victims)

    def clear(self) -> None:
        """Cold-start the pool (the paper's reboot before the cold run)."""
        if self._pages:
            self.version += 1
        self._pages.clear()

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
