"""QED batching policy and admission queue."""

import pytest

from repro.core.qed.policy import BatchPolicy, PAPER_POLICIES
from repro.core.qed.queue import QueryQueue


class TestBatchPolicy:
    def test_threshold_dispatch(self):
        policy = BatchPolicy(threshold=3)
        assert not policy.should_dispatch(2, 100.0)
        assert policy.should_dispatch(3, 0.0)

    def test_timeout_dispatch(self):
        policy = BatchPolicy(threshold=100, max_wait_s=5.0)
        assert not policy.should_dispatch(1, 4.9)
        assert policy.should_dispatch(1, 5.0)

    def test_no_timeout_by_default(self):
        policy = BatchPolicy(threshold=10)
        assert not policy.should_dispatch(1, 1e9)

    def test_empty_queue_never_dispatches(self):
        assert not BatchPolicy(1).should_dispatch(0, 1e9)

    def test_paper_policies(self):
        assert [p.threshold for p in PAPER_POLICIES] == [35, 40, 45, 50]

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(0)
        with pytest.raises(ValueError):
            BatchPolicy(1, max_wait_s=-1.0)


class TestQueryQueue:
    def test_fills_then_dispatches(self):
        queue = QueryQueue(BatchPolicy(threshold=3))
        assert queue.submit("q1", 0.0, 0) is None
        assert queue.submit("q2", 1.0, 1) is None
        batch = queue.submit("q3", 2.0, 2)
        assert batch is not None
        assert batch.sqls == ["q1", "q2", "q3"]
        assert len(queue) == 0

    def test_flush(self):
        queue = QueryQueue(BatchPolicy(threshold=100))
        queue.submit("q1", 0.0, 0)
        queue.submit("q2", 0.5, 1)
        batch = queue.flush(1.0)
        assert batch.size == 2
        assert queue.flush(2.0) is None

    def test_query_ids_are_the_callers(self):
        queue = QueryQueue(BatchPolicy(threshold=2))
        queue.submit("a", 0.0, 7)
        batch = queue.submit("a", 0.0, 3)
        assert [q.query_id for q in batch.queries] == [7, 3]
