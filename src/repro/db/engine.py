"""The :class:`Database` facade: tables in, SQL in, results + traces out.

A database is configured with an :class:`~repro.db.profiles.EngineProfile`
(commercial disk engine or MySQL memory engine).  ``execute`` runs a
query for real -- parse, bind, optimize, execute over numpy columns --
and returns a :class:`QueryResult` whose counters feed
:func:`repro.db.cost_model.build_trace` to produce the hardware work
trace for the energy simulation.
"""

from __future__ import annotations

from repro.db.catalog import Catalog
from repro.db.cost_model import build_trace, server_cycles
from repro.db.errors import PlanError
from repro.db.exec.executor import run_plan
from repro.db.plan.optimizer import plan_query
from repro.db.plan.physical import PhysNode
from repro.db.profiles import EngineProfile, mysql_profile
from repro.db.results import QueryResult
from repro.db.schema import Table, TableSchema
from repro.db.sql import ast
from repro.db.sql.parser import parse
from repro.db.storage.buffer import BufferPool
from repro.db.storage.engines import DiskEngine, MemoryEngine, StorageEngine
from repro.hardware.trace import Trace


class Database:
    """An embedded database instance over one storage engine.

    Repeated queries hit a *plan cache* (prepared statements): plans are
    keyed by SQL text plus a catalog/storage *generation* counter, so a
    workload of identical statements parses and plans once.  Any event
    that could change what a statement means or what work it performs
    bumps the generation: ``create_table``/``register_table``/
    ``drop_table`` (catalog change), ``warm``/``cool`` (explicit
    buffer-pool change), and -- on the disk engine -- any execution
    that itself changes the set of pool-resident pages (the
    :class:`~repro.db.storage.buffer.BufferPool` content version folds
    into the counter).  The generation invalidates both this cache and
    any downstream cached execution traces keyed on the same counter,
    so trace caches converge to steady-state (warm) executions rather
    than replaying a stale cold trace.
    """

    def __init__(self, profile: EngineProfile | None = None):
        self.profile = profile if profile is not None else mysql_profile()
        self.catalog = Catalog()
        self.storage: StorageEngine
        if self.profile.storage == "disk":
            self.buffer_pool = BufferPool(self.profile.buffer_pool_bytes)
            self.storage = DiskEngine(self.buffer_pool)
        elif self.profile.storage == "memory":
            self.buffer_pool = None
            self.storage = MemoryEngine()
        else:
            raise PlanError(
                f"unknown storage engine {self.profile.storage!r}"
            )
        self._generation = 0
        self._plan_cache: dict[str, tuple[int, PhysNode]] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: total queries actually executed (not served from any cache)
        self.executions = 0

    # -- cache generation -------------------------------------------------

    @property
    def generation(self) -> int:
        """Catalog/storage state counter; caches keyed on it self-invalidate.

        Both terms are monotone, so the sum changes whenever either the
        catalog or the buffer-pool contents do.
        """
        if self.buffer_pool is not None:
            return self._generation + self.buffer_pool.version
        return self._generation

    def _bump_generation(self) -> None:
        self._generation += 1
        self._plan_cache.clear()

    # -- DDL / loading ---------------------------------------------------

    def create_table(self, schema: TableSchema,
                     data: dict[str, object]) -> Table:
        """Create and load a table from column arrays/sequences."""
        table = Table.from_arrays(schema, data)
        self.catalog.register(table)
        self._bump_generation()
        return table

    def register_table(self, table: Table) -> None:
        self.catalog.register(table)
        self._bump_generation()

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)
        if self.buffer_pool is not None:
            self.buffer_pool.evict_table(name)
        self._bump_generation()

    # -- buffer management (warm/cold experiments) -----------------------

    def warm(self, *table_names: str) -> None:
        """Preload tables into the buffer pool (no-op on memory engine)."""
        if not isinstance(self.storage, DiskEngine):
            return
        names = table_names or tuple(self.catalog.table_names)
        for name in names:
            self.storage.warm(self.catalog.table(name))
        self._bump_generation()

    def cool(self) -> None:
        """Empty the buffer pool (the paper's reboot before cold runs)."""
        if self.buffer_pool is not None:
            self.buffer_pool.clear()
            self._bump_generation()

    # -- querying ---------------------------------------------------------

    def _to_select(self, query: str | ast.Select) -> ast.Select:
        if isinstance(query, ast.Select):
            return query
        return parse(query)

    def plan(self, query: str | ast.Select) -> PhysNode:
        """Plan a query, serving repeated SQL text from the plan cache."""
        if not isinstance(query, str):
            return plan_query(query, self.catalog)
        cached = self._plan_cache.get(query)
        if cached is not None and cached[0] == self.generation:
            self.plan_cache_hits += 1
            return cached[1]
        self.plan_cache_misses += 1
        plan = plan_query(parse(query), self.catalog)
        self._plan_cache[query] = (self.generation, plan)
        return plan

    def execute(self, query: str | ast.Select) -> QueryResult:
        plan = self.plan(query)
        self.executions += 1
        return run_plan(
            plan, self.catalog, self.storage, self.profile.work_mem_bytes
        )

    # -- energy/time accounting -------------------------------------------

    def trace_for(self, result: QueryResult, label: str = "query") -> Trace:
        """Hardware work trace for an executed query (server side)."""
        return build_trace(self.profile, result.stats, label=label)

    def server_cycles_for(self, result: QueryResult) -> float:
        return server_cycles(self.profile, result.stats)

    @property
    def workload_class(self) -> str:
        """Which calibrated voltage table applies to this engine's runs."""
        return self.profile.workload_class
