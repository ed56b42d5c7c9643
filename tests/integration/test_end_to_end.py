"""End-to-end integration: the full pipelines users would run.

These tests wire whole scenarios together -- arrival queue through
aggregation, execution, split, and energy accounting; sweep through
advisor prediction and verification -- complementing the per-module
unit tests.
"""

import numpy as np
import pytest

from repro.core.pvc.advisor import OperatingPointAdvisor, Sla
from repro.core.pvc.sweep import PvcSweep
from repro.core.qed.aggregator import merge_queries
from repro.core.qed.executor import QedExecutor
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue
from repro.core.qed.splitter import split_result
from repro.hardware.cpu import STOCK_SETTING
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_query
from repro.workloads.tpch.queries import q5_paper_workload


class TestQueueToSplitPipeline:
    def test_arrival_stream_round_trip(self, mysql_db, sut):
        """Queue -> batch -> merge -> execute -> split: every arriving
        query gets exactly the rows it would have gotten alone."""
        rng = np.random.default_rng(3)
        quantities = [int(q) for q in rng.permutation(50)[:30] + 1]
        queue = QueryQueue(BatchPolicy(threshold=10))
        batches = []
        now = 0.0
        for i, quantity in enumerate(quantities):
            now += 1.0
            batch = queue.submit(selection_query(quantity), now, i)
            if batch is not None:
                batches.append(batch)
        assert len(batches) == 3

        for batch in batches:
            merged = merge_queries(batch.sqls)
            result = mysql_db.execute(merged.sql)
            outcome = split_result(merged, result)
            assert outcome.unmatched_rows == 0
            for sql, part in zip(batch.sqls, outcome.results):
                direct = mysql_db.execute(sql)
                assert part.row_count == direct.row_count
                assert sorted(part.rows()) == sorted(direct.rows())

    def test_qed_energy_accounting_consistent(self, mysql_db, sut):
        """The comparison's ratios agree with its raw outcomes."""
        executor = QedExecutor(WorkloadRunner(mysql_db, sut))
        queries = [selection_query(q) for q in range(1, 16)]
        comparison = executor.compare(queries)
        assert comparison.energy_ratio == pytest.approx(
            comparison.batched.cpu_joules
            / comparison.sequential.cpu_joules
        )
        assert comparison.response_ratio == pytest.approx(
            comparison.batched.total_time_s
            / comparison.sequential.avg_response_s
        )
        assert comparison.edp_ratio == pytest.approx(
            comparison.energy_ratio * comparison.response_ratio
        )


class TestSweepToAdvisorPipeline:
    def test_advisor_prediction_verifies(self, mysql_db, sut):
        """Applying the advised setting reproduces the curve's numbers
        (the sweep is an honest predictor for the same workload)."""
        runner = WorkloadRunner(mysql_db, sut)
        queries = q5_paper_workload()[:2]
        curve = PvcSweep(runner, queries).run()
        advisor = OperatingPointAdvisor(curve)
        chosen = advisor.choose(Sla(max_time_increase=0.06))
        assert chosen.setting is not None
        assert not chosen.setting.is_stock

        sut.apply_setting(chosen.setting)
        verification = runner.run_queries(queries).total
        sut.apply_setting(STOCK_SETTING)
        assert verification.cpu_joules == pytest.approx(
            chosen.energy_j, rel=1e-6
        )
        assert verification.duration_s == pytest.approx(
            chosen.time_s, rel=1e-6
        )

    def test_sweep_deterministic(self, mysql_db, sut):
        runner = WorkloadRunner(mysql_db, sut)
        queries = [selection_query(1)]
        a = PvcSweep(runner, queries).run()
        b = PvcSweep(runner, queries).run()
        for pa, pb in zip(a.all_points, b.all_points):
            assert pa.energy_j == pytest.approx(pb.energy_j)
            assert pa.time_s == pytest.approx(pb.time_s)


class TestCrossEngineConsistency:
    def test_same_query_same_answer_on_both_engines(
        self, mysql_db, commercial_db
    ):
        """Storage engine changes cost, never semantics."""
        sql = ("SELECT n_name, COUNT(*) AS n "
               "FROM nation, region "
               "WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' "
               "GROUP BY n_name ORDER BY n_name")
        assert (
            mysql_db.execute(sql).rows()
            == commercial_db.execute(sql).rows()
        )

    def test_commercial_costs_more_wall_time_via_io(
        self, mysql_db, commercial_db, sut
    ):
        """The commercial profile's stall/temp-I/O terms stretch wall
        time relative to the pure-CPU memory engine for the same scan
        volume (with fewer CPU cycles per row)."""
        sql = selection_query(1)
        mysql_run = WorkloadRunner(mysql_db, sut).execute_query(sql)
        comm_run = WorkloadRunner(commercial_db, sut).execute_query(sql)
        mysql_m = sut.run_compiled(mysql_run.trace, mysql_db.workload_class)
        comm_m = sut.run_compiled(comm_run.trace, commercial_db.workload_class)
        assert comm_m.avg_cpu_power_w < mysql_m.avg_cpu_power_w
