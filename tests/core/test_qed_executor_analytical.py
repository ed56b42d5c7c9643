"""QED executor comparisons and the analytical model."""

import pytest

from repro.core.qed.analytical import QedModel, expected_or_comparisons
from repro.core.qed.executor import QedExecutor
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_workload


@pytest.fixture()
def executor(mysql_db, sut) -> QedExecutor:
    return QedExecutor(WorkloadRunner(mysql_db, sut))


class TestExecutor:
    def test_sequential_outcome(self, executor):
        outcome = executor.run_sequential(selection_workload(4).queries)
        assert outcome.batch_size == 4
        # average completion ~ (N+1)/2 single-query times
        single = outcome.completion_times_s[0]
        assert outcome.avg_response_s == pytest.approx(
            2.5 * single, rel=0.01
        )

    def test_sequential_total_time_is_the_measured_run(self, executor):
        outcome = executor.run_sequential(selection_workload(4).queries)
        assert outcome.total_time_s == outcome.measurement.duration_s
        assert outcome.completion_times_s[-1] == pytest.approx(
            outcome.total_time_s, rel=1e-9
        )

    def test_batched_outcome_answers_all_at_end(self, executor):
        outcome = executor.run_batched(selection_workload(4).queries)
        assert outcome.avg_response_s == outcome.total_time_s
        assert outcome.split.unmatched_rows == 0
        assert len(outcome.split.results) == 4

    def test_qed_saves_energy_costs_time(self, executor):
        """The core tradeoff at a healthy batch size."""
        comparison = executor.compare(selection_workload(20).queries)
        assert comparison.energy_ratio < 0.9
        assert comparison.response_ratio > 1.0
        assert comparison.edp_ratio < 1.0

    def test_bigger_batches_save_more_energy(self, executor):
        small = executor.compare(selection_workload(10).queries)
        large = executor.compare(selection_workload(30).queries)
        assert large.energy_ratio < small.energy_ratio

    def test_position_degradation_monotone(self, executor):
        comparison = executor.compare(selection_workload(10).queries)
        degradation = comparison.position_degradation()
        assert degradation == sorted(degradation, reverse=True)
        assert degradation[0] > degradation[-1]

    def test_first_query_degradation_grows_with_batch(self, executor):
        """Paper: 'the degradation in response time for the first query
        increases as the batch size increases.'"""
        small = executor.compare(selection_workload(10).queries)
        large = executor.compare(selection_workload(30).queries)
        assert (
            large.position_degradation()[0]
            > small.position_degradation()[0]
        )

    def test_batch_of_one_is_pure_overhead(self, executor):
        comparison = executor.compare(selection_workload(1).queries)
        # Nothing amortizes; QED only adds split work.
        assert comparison.energy_ratio >= 1.0
        assert comparison.response_ratio >= 1.0


class TestExpectedComparisons:
    def test_full_coverage(self):
        # 50 of 50 values: every row matches; expected ~ (50+1)/2
        assert expected_or_comparisons(50, 50) == pytest.approx(25.5)

    def test_single_disjunct(self):
        # 1/50 rows match at cost 1; 49/50 miss at cost 1.
        assert expected_or_comparisons(1, 50) == pytest.approx(1.0)

    def test_saturates(self):
        values = [expected_or_comparisons(n, 50) for n in (35, 40, 45, 50)]
        deltas = [b - a for a, b in zip(values, values[1:])]
        assert all(d < 1.5 for d in deltas)  # nearly flat

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_or_comparisons(0, 50)
        with pytest.raises(ValueError):
            expected_or_comparisons(51, 50)


class TestAnalyticalModel:
    def test_shares_must_sum(self):
        with pytest.raises(ValueError):
            QedModel(scan_share=0.5, compare_share=0.5, result_share=0.5)

    def test_response_ratio_declines_with_batch(self):
        model = QedModel()
        ratios = [model.response_ratio(n) for n in (35, 40, 45, 50)]
        assert ratios == sorted(ratios, reverse=True)

    def test_first_worst_last_best(self):
        model = QedModel()
        n = 40
        first = model.first_query_degradation(n)
        last = model.last_query_degradation(n)
        assert first > model.response_ratio(n) > last

    def test_first_degradation_grows(self):
        model = QedModel()
        assert (
            model.first_query_degradation(50)
            > model.first_query_degradation(35)
        )

    def test_sla_max_batch(self):
        model = QedModel()
        tight = model.max_batch_for_sla(3.0)
        loose = model.max_batch_for_sla(30.0)
        assert 0 <= tight < loose <= 50

    def test_position_validation(self):
        with pytest.raises(ValueError):
            QedModel().sequential_completion(0)
