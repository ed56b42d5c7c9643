"""QED execution: sequential baseline vs aggregated batch (Figure 6).

Accounting follows the paper exactly:

* Both schemes are timed "from the time the batch of queries is issued
  to the database to the time the last query is returned".
* Sequential: queries run one after another; query *i* completes at the
  sum of the first *i* query times, so the average per-query response is
  about ``(N+1)/2`` times a single query.
* QED: the batch is merged into one disjunctive query; every query's
  result arrives when the merged execution *plus the client-side split*
  finishes.  Queue buildup time is not counted (the master is always
  on; the DBMS sleeps while the queue fills).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import edp
from repro.core.qed.aggregator import MergedQuery, merge_queries
from repro.core.qed.splitter import SplitOutcome, split_cost_rows, split_result
from repro.hardware.system import RunMeasurement
from repro.hardware.trace import CompiledTrace, Trace
from repro.workloads.runner import QueryExecution, WorkloadRunner


@dataclass
class SequentialOutcome:
    """The traditional scheme: one query at a time."""

    measurement: RunMeasurement
    completion_times_s: list[float]

    @property
    def batch_size(self) -> int:
        return len(self.completion_times_s)

    @property
    def total_time_s(self) -> float:
        return self.measurement.duration_s

    @property
    def cpu_joules(self) -> float:
        return self.measurement.cpu_joules

    @property
    def avg_response_s(self) -> float:
        times = self.completion_times_s
        return sum(times) / len(times)

    @property
    def energy_per_query_j(self) -> float:
        return self.cpu_joules / self.batch_size


@dataclass
class BatchedOutcome:
    """The QED scheme: one aggregated query plus a client split."""

    merged: MergedQuery
    measurement: RunMeasurement
    split: SplitOutcome

    @property
    def batch_size(self) -> int:
        return self.merged.batch_size

    @property
    def total_time_s(self) -> float:
        return self.measurement.duration_s

    @property
    def cpu_joules(self) -> float:
        return self.measurement.cpu_joules

    @property
    def avg_response_s(self) -> float:
        """Every query is answered when the batch finishes."""
        return self.total_time_s

    @property
    def energy_per_query_j(self) -> float:
        return self.cpu_joules / self.batch_size


@dataclass
class QedComparison:
    """Figure 6's datum: QED vs sequential for one batch size."""

    sequential: SequentialOutcome
    batched: BatchedOutcome

    @property
    def batch_size(self) -> int:
        return self.batched.batch_size

    @property
    def energy_ratio(self) -> float:
        return (
            self.batched.energy_per_query_j
            / self.sequential.energy_per_query_j
        )

    @property
    def response_ratio(self) -> float:
        return self.batched.avg_response_s / self.sequential.avg_response_s

    @property
    def edp_ratio(self) -> float:
        batched = edp(self.batched.energy_per_query_j,
                      self.batched.avg_response_s)
        baseline = edp(self.sequential.energy_per_query_j,
                       self.sequential.avg_response_s)
        return batched / baseline

    @property
    def energy_delta(self) -> float:
        return self.energy_ratio - 1.0

    @property
    def response_delta(self) -> float:
        return self.response_ratio - 1.0

    @property
    def edp_delta(self) -> float:
        return self.edp_ratio - 1.0

    def position_degradation(self) -> list[float]:
        """Per-queue-position response ratio (QED time / sequential
        completion).  Most severe for the first query, least for the
        last -- the paper's observation."""
        batch_time = self.batched.total_time_s
        return [
            batch_time / completion
            for completion in self.sequential.completion_times_s
        ]


def merged_batch_execution(
    runner: WorkloadRunner, merged: MergedQuery
) -> tuple[QueryExecution, Trace]:
    """Execute a merged batch and assemble its full QED work trace.

    One disjunctive execution plus the client-side split work -- the
    single place that defines what a QED batch costs, shared by
    :class:`QedExecutor` and the cluster simulator's per-node queues so
    the two accountings can never diverge.
    """
    execution = runner.cached_execution(
        merged.sql, label="qed", keep_result=True
    )
    trace = Trace(list(execution.trace.segments))
    trace.add(runner.client.split_work(
        split_cost_rows(merged, execution.result), label="qed:split"
    ))
    return execution, trace


def merged_batch_trace(
    runner: WorkloadRunner, merged: MergedQuery
) -> CompiledTrace:
    """:func:`merged_batch_execution`'s compiled trace, built once.

    What a caller needs when it only *costs* the batch (the cluster
    simulator): no result rows are kept.  The memo sits beside the
    runner's execution cache (``clear_execution_cache`` empties both)
    and is keyed on everything the trace depends on: the merged SQL,
    the inputs of :func:`split_cost_rows` besides the result --
    ``routing_values`` when hash-routable, ``batch_size`` otherwise;
    the merged SQL is the *deduplicated* disjunction, so batches with
    different multiplicities share it -- and the database generation.
    """
    key = (
        merged.sql,
        merged.routing_values if merged.hash_routable
        else merged.batch_size,
    )
    generation = runner.db.generation
    cached = runner.merged_trace_cache.get(key)
    if cached is not None and cached[0] == generation:
        return cached[1]
    execution, trace = merged_batch_execution(runner, merged)
    compiled = trace.compiled()
    execution.release_result()
    runner.merged_trace_cache[key] = (generation, compiled)
    return compiled


class QedExecutor:
    """Runs the two schemes for a workload of mergeable selections."""

    def __init__(self, runner: WorkloadRunner):
        self.runner = runner

    def run_sequential(self, queries: list[str]) -> SequentialOutcome:
        # Replay path: a batch of identical (or repeated) queries
        # executes each distinct statement once and replays its trace.
        measurement = self.runner.replay_queries(queries, label="seq")
        return SequentialOutcome(
            measurement=measurement.total,
            completion_times_s=measurement.completion_times_s,
        )

    def run_batched(self, queries: list[str]) -> BatchedOutcome:
        merged = merge_queries(queries)
        execution, trace = merged_batch_execution(self.runner, merged)
        split = split_result(merged, execution.result)
        measurement = self.runner.sut.run_compiled(
            trace, self.runner.db.workload_class
        )
        return BatchedOutcome(
            merged=merged, measurement=measurement, split=split,
        )

    def compare(self, queries: list[str]) -> QedComparison:
        return QedComparison(
            sequential=self.run_sequential(queries),
            batched=self.run_batched(queries),
        )
