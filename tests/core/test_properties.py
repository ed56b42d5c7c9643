"""Cross-cutting property tests on the core mechanisms."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration import targets
from repro.core.metrics import OperatingPoint, RatioPoint, pareto_front
from repro.core.qed.aggregator import merge_queries
from repro.core.qed.policy import BatchPolicy
from repro.core.qed.queue import QueryQueue
from repro.core.qed.splitter import (
    _split_by_predicates,
    split_result,
)
from repro.workloads.selection import selection_query


class TestSplitterEquivalence:
    @given(batch=st.lists(
        st.integers(min_value=1, max_value=50),
        min_size=2, max_size=6, unique=True,
    ))
    @settings(max_examples=10)
    def test_hash_and_predicate_split_agree(self, mysql_db, batch):
        """For disjoint equality batches the O(1) hash router and the
        general predicate router partition identically."""
        queries = [selection_query(q) for q in batch]
        merged = merge_queries(queries)
        assert merged.hash_routable
        result = mysql_db.execute(merged.sql)
        via_hash = split_result(merged, result)
        via_pred = _split_by_predicates(merged, result)
        assert via_hash.per_query_rows == via_pred.per_query_rows
        for a, b in zip(via_hash.results, via_pred.results):
            assert sorted(a.rows()) == sorted(b.rows())


class TestQueueProperties:
    @given(
        threshold=st.integers(min_value=1, max_value=10),
        arrivals=st.integers(min_value=0, max_value=60),
    )
    def test_batches_respect_threshold(self, threshold, arrivals):
        queue = QueryQueue(BatchPolicy(threshold=threshold))
        sizes = []
        for i in range(arrivals):
            batch = queue.submit(f"q{i}", float(i), i)
            if batch is not None:
                sizes.append(batch.size)
        # Every dispatched batch hits the threshold exactly; the
        # remainder stays pending.
        assert all(size == threshold for size in sizes)
        assert len(queue) == arrivals - threshold * len(sizes)
        assert len(queue) < threshold

    @given(arrivals=st.lists(
        st.floats(min_value=0, max_value=100), min_size=1, max_size=30,
    ))
    def test_flush_preserves_order_and_count(self, arrivals):
        queue = QueryQueue(BatchPolicy(threshold=1_000_000))
        arrivals = sorted(arrivals)
        for i, t in enumerate(arrivals):
            queue.submit(f"q{i}", t, i)
        batch = queue.flush(arrivals[-1] + 1.0)
        assert batch.size == len(arrivals)
        assert [q.sql for q in batch.queries] == [
            f"q{i}" for i in range(len(arrivals))
        ]
        assert all(q.wait_at(batch.dispatch_s) >= 0 for q in batch.queries)


class TestMetricsProperties:
    @given(
        time_r=st.floats(min_value=0.5, max_value=2.0),
        energy_r=st.floats(min_value=0.1, max_value=2.0),
    )
    def test_below_iso_edp_iff_product_below_one(self, time_r, energy_r):
        point = RatioPoint("p", time_r, energy_r)
        assert point.below_iso_edp == (time_r * energy_r < 1.0)

    @given(points=st.lists(
        st.tuples(
            st.floats(min_value=0.9, max_value=1.3),
            st.floats(min_value=0.3, max_value=1.2),
        ),
        min_size=1, max_size=10,
    ))
    def test_pareto_front_is_undominated(self, points):
        ratio_points = [
            RatioPoint(f"p{i}", t, e) for i, (t, e) in enumerate(points)
        ]
        front = pareto_front(ratio_points)
        assert front  # never empty
        for member in front:
            for other in ratio_points:
                strictly_better = (
                    other.time_ratio <= member.time_ratio
                    and other.energy_ratio <= member.energy_ratio
                    and (other.time_ratio < member.time_ratio
                         or other.energy_ratio < member.energy_ratio)
                )
                assert not strictly_better

    @given(
        base_t=st.floats(min_value=1.0, max_value=100.0),
        base_e=st.floats(min_value=1.0, max_value=1000.0),
        scale=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_ratios_scale_free(self, base_t, base_e, scale):
        """Ratio points are invariant to the workload's absolute size."""
        base = OperatingPoint("b", base_t, base_e)
        point = OperatingPoint("p", base_t * 1.1, base_e * 0.7)
        scaled_base = OperatingPoint("b2", base_t * scale, base_e * scale)
        scaled_point = OperatingPoint(
            "p2", base_t * 1.1 * scale, base_e * 0.7 * scale
        )
        a = point.ratios_vs(base)
        b = scaled_point.ratios_vs(scaled_base)
        assert a.time_ratio == pytest.approx(b.time_ratio)
        assert a.energy_ratio == pytest.approx(b.energy_ratio)


class TestTargetsModule:
    def test_time_ratio_models(self):
        assert targets.mysql_time_ratio(0) == 1.0
        assert targets.mysql_time_ratio(5) == pytest.approx(1.0526, abs=1e-3)
        assert targets.commercial_time_ratio(0) == pytest.approx(1.0)
        assert targets.commercial_time_ratio(5) == pytest.approx(
            1.0316, abs=1e-3
        )
        # commercial stretches less than CPU-bound at every level
        for pct in (5, 10, 15):
            assert (
                targets.commercial_time_ratio(pct)
                < targets.mysql_time_ratio(pct)
            )

    def test_energy_targets_consistent_with_headlines(self):
        assert targets.energy_ratio_target(
            "commercial", "medium", 5
        ) == pytest.approx(0.51, abs=0.01)
        assert targets.energy_ratio_target(
            "mysql", "medium", 5
        ) == pytest.approx(0.80, abs=0.01)

    def test_qed_points_shape(self):
        batches = sorted(targets.QED_POINTS)
        energies = [targets.QED_POINTS[n][0] for n in batches]
        responses = [targets.QED_POINTS[n][1] for n in batches]
        assert energies == sorted(energies, reverse=True)
        assert responses == sorted(responses, reverse=True)

    def test_table1_rows_increasing(self):
        watts = [row.watts for row in targets.TABLE1_ROWS]
        assert watts == sorted(watts)


class TestAggregatorIdempotence:
    @given(batch=st.lists(
        st.integers(min_value=1, max_value=50),
        min_size=1, max_size=8, unique=True,
    ))
    def test_merge_sql_reparses_to_same_structure(self, batch):
        queries = [selection_query(q) for q in batch]
        merged = merge_queries(queries)
        remerged = merge_queries([merged.sql])
        # Re-merging the merged query keeps the same disjuncts.
        assert remerged.select.where == merged.select.where


@pytest.fixture(scope="module")
def mysql_db():
    # Local lightweight fixture: lineitem only, smaller than conftest's.
    from repro.db.profiles import mysql_profile
    from repro.workloads.tpch.generator import tpch_database

    return tpch_database(0.005, mysql_profile(), seed=1,
                         tables=["lineitem"])
