"""Ablation: QED analytical model vs measured behaviour, plus policies.

The paper claims "a simple analytical model can be used to capture these
effects [per-position response degradation] in more detail, and can be
used to consider the impact on SLAs."  This bench validates
:class:`repro.core.qed.analytical.QedModel` against the measured
executor and exercises the SLA feasibility query.
"""

import pytest

from repro.core.qed.analytical import QedModel
from repro.core.qed.executor import QedExecutor
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue
from repro.measurement.report import ComparisonTable
from repro.workloads.selection import selection_workload


def run_model_validation(runner):
    executor = QedExecutor(runner)
    measured = {
        n: executor.compare(selection_workload(n).queries)
        for n in (35, 50)
    }
    # Parameterize the model from a measured single query.
    single = executor.run_sequential(selection_workload(1).queries)
    t_q = single.total_time_s
    model = QedModel()
    return measured, model, t_q


def test_ablation_qed_analytical_model(benchmark, lineitem_runner):
    measured, model, _ = benchmark.pedantic(
        run_model_validation, args=(lineitem_runner,),
        rounds=1, iterations=1,
    )
    table = ComparisonTable(
        "Ablation: analytical QED model (paper column = measured)"
    )
    for n, comparison in measured.items():
        table.add(f"batch {n} response ratio",
                  comparison.response_ratio, model.response_ratio(n))
        table.add(f"batch {n} first-query degradation",
                  comparison.position_degradation()[0],
                  model.first_query_degradation(n))
    table.print()

    for n, comparison in measured.items():
        assert model.response_ratio(n) == pytest.approx(
            comparison.response_ratio, rel=0.15
        )
        assert model.first_query_degradation(n) == pytest.approx(
            comparison.position_degradation()[0], rel=0.15
        )


def test_ablation_batch_policy_sla(benchmark):
    """Queue + timeout policy: a half-full queue still drains, and the
    analytical model bounds the SLA-feasible batch size."""
    def run():
        model = QedModel()
        # An SLA of 25 single-query-times on the *first* query:
        feasible = model.max_batch_for_sla(25.0)
        queue = QueryQueue(BatchPolicy(threshold=feasible, max_wait_s=30.0))
        batches = []
        for i in range(feasible + feasible // 2):
            batch = queue.submit(f"q{i}", 0.1 * i, i)  # fast arrivals
            if batch is not None:
                batches.append(batch)
        # The stream ends with the tail queued: its timeout fires.
        tail = queue.drain(0.1 * i)
        if tail is not None:
            batches.append(tail)
        return feasible, batches

    feasible, batches = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 < feasible <= 50
    assert len(batches) == 2
    assert batches[0].size == feasible          # threshold dispatch
    assert batches[1].size == feasible // 2     # timeout dispatch
