"""Workload runner: execute queries, build traces, play them on the SUT.

The runner is the glue for every experiment: it executes each query for
real in the database, appends the client-side fetch work, and plays
each query's compiled trace on the simulated machine under the current
PVC setting through :meth:`SystemUnderTest.run_compiled`, the one
playback kernel.  Per-query completion times fall out of the per-query
sub-measurements, which the QED experiment uses for response-time
accounting.

Execute-once / replay-many
--------------------------
A query's work trace does not depend on the PVC setting -- only its
*playback* does.  The runner therefore keeps a :class:`QueryExecution`
cache keyed by SQL text and the database's catalog/storage generation:
``replay_queries`` executes each distinct query at most once and then
re-costs the cached (compiled) trace under the current setting with the
SUT's vectorized playback path.  Sweeps over settings and repeated
measurement runs pay for database execution once instead of per point.
``run_queries`` keeps the original execute-every-time semantics (needed
by the warm/cold experiments, whose first run mutates the buffer pool)
and plays each fresh execution through the same :meth:`run_execution`,
timeline included, so the sensor models can sample the result.

Memory and persistence
----------------------
Replay only needs the *compiled trace*; the result rows matter solely
to QED's splitter.  Cache entries therefore drop their
:class:`~repro.db.results.QueryResult` row data once the trace is
compiled unless the caller asks to keep it (``keep_result=True``), so
long sweeps and fleet-scale cluster runs do not pin every result set.
A :class:`TraceCache` can additionally persist compiled traces in the
shared memory-mapped trace store so later processes reuse executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.db.engine import Database
from repro.db.results import QueryResult
from repro.hardware.system import RunMeasurement, SystemUnderTest
from repro.hardware.trace import CompiledTrace, Trace
from repro.hardware.trace_store import ColumnarTraceStore
from repro.workloads.client import ClientModel


@dataclass
class QueryExecution:
    """One executed query: its result and its hardware work trace.

    ``result`` is ``None`` once the row data has been evicted (replay
    needs only the compiled trace) or when the execution was restored
    from a :class:`TraceCache`, this process's or an earlier one's.
    ``trace`` is ``None`` only in the restored case; the compiled form
    is always available.
    """

    sql: str
    result: QueryResult | None
    trace: Trace | None
    _compiled: CompiledTrace | None = field(
        default=None, repr=False, compare=False
    )

    def compiled_trace(self) -> CompiledTrace:
        """The trace's packed form for vectorized replay (memoized)."""
        if self._compiled is None:
            if self.trace is None:
                raise ValueError(
                    "execution has neither a trace nor a compiled trace"
                )
            self._compiled = self.trace.compiled()
        return self._compiled

    def release_result(self) -> None:
        """Drop the result row data, keeping the (compiled) trace.

        Only QED's splitter reads cached results; everything on the
        replay path works from the compiled trace alone.
        """
        self.compiled_trace()  # make sure playback needs nothing else
        self.result = None

    @classmethod
    def from_compiled(cls, sql: str,
                      compiled: CompiledTrace) -> "QueryExecution":
        """An execution restored from a persisted compiled trace."""
        return cls(sql, result=None, trace=None, _compiled=compiled)


class TraceCache(ColumnarTraceStore):
    """The on-disk compiled-trace store, with hit/miss accounting.

    One append-only memory-mapped container per ``namespace`` under
    ``directory`` (see :class:`ColumnarTraceStore`); the runner keys
    entries by its client-model fingerprint plus the SQL text.  The
    namespace must identify everything else the trace depends on --
    engine profile, scale factor, seed, warm/cold state -- because
    unlike the in-process execution cache there is no generation
    counter to invalidate stale entries across processes, and the store
    keeps the *first* trace written under a key.  Intended for
    steady-state benchmark workloads (warmed or memory-engine
    databases).
    """

    def __init__(self, directory: str | Path, namespace: str = ""):
        super().__init__(directory, namespace)
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_workload(
        cls,
        directory: str | Path,
        engine: str,
        scale_factor: float,
        seed: int = 0,
        tables: tuple[str, ...] | list[str] | None = None,
    ) -> "TraceCache":
        """A cache namespaced by everything a TPC-H trace depends on.

        Every entry point that shares a cache directory (cluster CLI,
        ``scripts/perf_report.py``, the benchmark suite) must build the
        namespace through here, or equal workloads silently miss each
        other's entries.
        """
        tables_key = "-".join(tables) if tables else "all"
        return cls(
            directory, f"{engine}-sf{scale_factor}-seed{seed}-{tables_key}"
        )

    def get(self, key: str) -> CompiledTrace | None:
        compiled = super().get(key)
        if compiled is None:
            self.misses += 1
        else:
            self.hits += 1
        return compiled


@dataclass
class WorkloadMeasurement:
    """A played workload: totals plus per-query measurements."""

    total: RunMeasurement
    per_query: list[RunMeasurement] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.total.duration_s

    @property
    def cpu_joules(self) -> float:
        return self.total.cpu_joules

    @property
    def completion_times_s(self) -> list[float]:
        """Completion time of each query, measured from workload start."""
        out: list[float] = []
        elapsed = 0.0
        for m in self.per_query:
            elapsed += m.duration_s
            out.append(elapsed)
        return out

    @property
    def mean_completion_s(self) -> float:
        times = self.completion_times_s
        return sum(times) / len(times) if times else 0.0


class WorkloadRunner:
    """Runs SQL workloads against a database on a simulated machine."""

    def __init__(
        self,
        db: Database,
        sut: SystemUnderTest,
        client: ClientModel | None = None,
        include_client_work: bool = True,
        trace_cache: TraceCache | None = None,
    ):
        self.db = db
        self.sut = sut
        self.client = client if client is not None else ClientModel()
        self.include_client_work = include_client_work
        self.trace_cache = trace_cache
        #: persisted traces embed client-work segments, so the client
        #: configuration folds into every disk-cache key -- runners with
        #: different client models sharing a directory must never
        #: exchange entries.
        self._trace_key_prefix = (
            f"client={self.client!r};"
            f"include={self.include_client_work}\x00"
        )
        self._execution_cache: dict[str, tuple[int, QueryExecution]] = {}
        #: compiled QED work traces of merged batches, filled and read by
        #: :func:`repro.core.qed.executor.merged_batch_trace`: (merged
        #: SQL, split signature) -> (database generation, trace).  No
        #: result rows are held.
        self.merged_trace_cache: dict[
            tuple, tuple[int, CompiledTrace]
        ] = {}
        self.execution_cache_hits = 0
        self.execution_cache_misses = 0

    def execute_query(self, sql: str, label: str = "query"
                      ) -> QueryExecution:
        """Execute one query and assemble its full work trace."""
        result = self.db.execute(sql)
        trace = self.db.trace_for(result, label=label)
        if self.include_client_work:
            trace.extend(self.client.trace_for_result(
                result, label=f"{label}:client"
            ))
        return QueryExecution(sql, result, trace)

    def run_queries(self, queries: list[str], label: str = "q"
                    ) -> WorkloadMeasurement:
        """Execute and play each query back-to-back (think time zero).

        Every statement executes fresh (no execution cache), so each run
        sees the buffer-pool state the previous one left behind; the
        measurements carry their power timeline.
        """
        per_query: list[RunMeasurement] = []
        total: RunMeasurement | None = None
        for i, sql in enumerate(queries):
            execution = self.execute_query(sql, label=f"{label}{i}")
            measurement = self.run_execution(execution, with_timeline=True)
            per_query.append(measurement)
            total = measurement if total is None else total + measurement
        if total is None:
            raise ValueError("workload must contain at least one query")
        return WorkloadMeasurement(total=total, per_query=per_query)

    # -- execute-once / replay-many ---------------------------------------

    def cached_execution(self, sql: str, label: str = "query",
                         keep_result: bool = True) -> QueryExecution:
        """Execute ``sql`` once; serve repeats from the execution cache.

        Cache entries are keyed by SQL text plus the database generation,
        so DDL and buffer-pool changes (``drop_table``, ``cool``, ...)
        transparently force a fresh execution.

        ``keep_result=False`` (the replay/cluster hot path) evicts the
        result row data once the trace is compiled and may serve the
        entry from the runner's :class:`TraceCache`, if one is
        configured.  A later ``keep_result=True`` call on an entry whose
        result was evicted re-executes to recover it (QED's splitter is
        the only such consumer).
        """
        generation = self.db.generation
        cached = self._execution_cache.get(sql)
        #: a generation mismatch means this process *knows* the disk
        #: entry (written by us at the old generation) is stale too --
        #: bypass the trace cache and re-execute.  The store keeps its
        #: first trace (the ``put`` below is then a no-op): the cache
        #: namespace, not the store, must encode warm/cold state.
        stale = cached is not None and cached[0] != generation
        if cached is not None and not stale:
            execution = cached[1]
            if keep_result and execution.result is None:
                # Result was evicted (or trace-cache restored); recover.
                self.execution_cache_misses += 1
                execution = self.execute_query(sql, label=label)
                self._execution_cache[sql] = (generation, execution)
                return execution
            self.execution_cache_hits += 1
            # An entry still holding its result was explicitly requested
            # with keep_result=True; callers may hold the aliased object,
            # so a later keep_result=False hit must not null it out.
            return execution
        self.execution_cache_misses += 1
        disk_key = self._trace_key_prefix + sql
        if not keep_result and not stale and self.trace_cache is not None:
            compiled = self.trace_cache.get(disk_key)
            if compiled is not None:
                execution = QueryExecution.from_compiled(sql, compiled)
                self._execution_cache[sql] = (generation, execution)
                return execution
        execution = self.execute_query(sql, label=label)
        if self.trace_cache is not None:
            self.trace_cache.put(disk_key, execution.compiled_trace())
        if not keep_result:
            execution.release_result()
        self._execution_cache[sql] = (generation, execution)
        return execution

    def clear_execution_cache(self) -> None:
        self._execution_cache.clear()
        self.merged_trace_cache.clear()

    def run_execution(self, execution: QueryExecution,
                      with_timeline: bool = False) -> RunMeasurement:
        """Replay one execution's trace under the current PVC setting."""
        return self.sut.run_compiled(
            execution.compiled_trace(), self.db.workload_class,
            with_timeline=with_timeline,
        )

    def replay_queries(self, queries: list[str], label: str = "q",
                       with_timeline: bool = False) -> WorkloadMeasurement:
        """Like :meth:`run_queries`, but execute-once / replay-many.

        Each distinct query is executed at most once (across *all*
        ``replay_queries`` calls on this runner); its cached trace is
        re-costed under the current PVC setting via vectorized playback.
        Cached entries keep only the compiled trace -- result rows are
        evicted so sweeps over many settings stay memory-flat.
        """
        per_query: list[RunMeasurement] = []
        total: RunMeasurement | None = None
        for i, sql in enumerate(queries):
            execution = self.cached_execution(
                sql, label=f"{label}{i}", keep_result=False
            )
            measurement = self.run_execution(
                execution, with_timeline=with_timeline
            )
            per_query.append(measurement)
            total = measurement if total is None else total + measurement
        if total is None:
            raise ValueError("workload must contain at least one query")
        return WorkloadMeasurement(total=total, per_query=per_query)
