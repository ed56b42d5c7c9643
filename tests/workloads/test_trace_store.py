"""Columnar trace store: roundtrips, crash-safety, shared readers."""

import json
import threading

import numpy as np
import pytest

from repro.db.profiles import mysql_profile
from repro.hardware.trace import (
    CompiledTrace,
    CpuWork,
    DiskAccess,
    Idle,
    ROW_DTYPE,
    Trace,
)
from repro.hardware.trace_store import ColumnarTraceStore, _digest
from repro.workloads.runner import TraceCache, WorkloadRunner
from repro.workloads.selection import selection_query
from repro.workloads.tpch.generator import tpch_database


def make_trace(seed: int = 0) -> CompiledTrace:
    """A distinctive little mixed-kind trace per seed."""
    return Trace([
        CpuWork(1e6 * (seed + 1), utilization=0.8, label=f"cpu{seed}"),
        DiskAccess(10 + seed, 4096.0 * (seed + 1), sequential=seed % 2 == 0,
                   write=seed % 3 == 0, label=f"disk{seed}"),
        Idle(0.01 * (seed + 1), label=f"idle{seed}"),
    ]).compiled()


def assert_traces_equal(a: CompiledTrace, b: CompiledTrace) -> None:
    assert a.labels == b.labels
    for field in ("kinds", "cycles", "utilization", "num_ops",
                  "bytes_total", "sequential", "write", "seconds"):
        np.testing.assert_array_equal(getattr(a, field),
                                      getattr(b, field))


class TestRowFormat:
    def test_to_rows_from_rows_roundtrip(self):
        compiled = make_trace(3)
        rows = compiled.to_rows()
        assert rows.dtype == ROW_DTYPE
        assert len(rows) == len(compiled)
        back = CompiledTrace.from_rows(rows, compiled.labels)
        assert_traces_equal(compiled, back)

    def test_from_rows_is_zero_copy(self):
        compiled = make_trace(1)
        rows = compiled.to_rows()
        back = CompiledTrace.from_rows(rows, compiled.labels)
        assert back.cycles.base is rows

    def test_from_rows_rejects_label_mismatch(self):
        compiled = make_trace(0)
        with pytest.raises(ValueError, match="label count"):
            CompiledTrace.from_rows(compiled.to_rows(), ("only-one",))


class TestColumnarTraceStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ColumnarTraceStore(tmp_path, namespace="rt")
        compiled = make_trace(0)
        store.put("q0", compiled)
        assert "q0" in store
        assert len(store) == 1
        assert_traces_equal(store.get("q0"), compiled)
        assert store.get("missing") is None

    def test_get_is_a_view_of_the_mapped_container(self, tmp_path):
        store = ColumnarTraceStore(tmp_path, namespace="mm")
        store.put("q0", make_trace(0))
        loaded = store.get("q0")
        # Field views share the memmap's buffer: one physical copy per
        # machine, not one per (node, process).
        import mmap

        root = loaded.cycles
        while isinstance(root, np.ndarray) and root.base is not None:
            root = root.base
        assert isinstance(root, (np.memmap, mmap.mmap))

    def test_entries_visible_to_a_fresh_store(self, tmp_path):
        ColumnarTraceStore(tmp_path, namespace="p").put(
            "q0", make_trace(0)
        )
        again = ColumnarTraceStore(tmp_path, namespace="p")
        assert_traces_equal(again.get("q0"), make_trace(0))

    def test_first_writer_wins(self, tmp_path):
        store = ColumnarTraceStore(tmp_path, namespace="fw")
        store.put("q", make_trace(0))
        store.put("q", make_trace(5))  # silently ignored
        assert_traces_equal(store.get("q"), make_trace(0))
        assert len(store) == 1

    def test_namespaces_use_separate_containers(self, tmp_path):
        a = ColumnarTraceStore(tmp_path, namespace="a")
        b = ColumnarTraceStore(tmp_path, namespace="b")
        a.put("q", make_trace(0))
        assert a.rows_path != b.rows_path
        assert b.get("q") is None
        assert "q" not in b

    def test_many_entries_span_the_container(self, tmp_path):
        store = ColumnarTraceStore(tmp_path, namespace="many")
        for i in range(20):
            store.put(f"q{i}", make_trace(i))
        reader = ColumnarTraceStore(tmp_path, namespace="many")
        for i in range(20):
            assert_traces_equal(reader.get(f"q{i}"), make_trace(i))

    def test_corrupt_index_reads_as_miss_and_put_recovers(self, tmp_path):
        store = ColumnarTraceStore(tmp_path, namespace="ci")
        store.put("q0", make_trace(0))
        store.index_path.write_text("{ not json")
        fresh = ColumnarTraceStore(tmp_path, namespace="ci")
        assert fresh.get("q0") is None  # miss, not a crash
        fresh.put("q1", make_trace(1))
        assert_traces_equal(fresh.get("q1"), make_trace(1))

    def test_foreign_format_index_is_ignored(self, tmp_path):
        store = ColumnarTraceStore(tmp_path, namespace="ff")
        store.index_path.write_text(json.dumps(
            {"format": "something-else", "entries": {"x": {}}}
        ))
        assert len(store) == 0
        assert store.get("x") is None

    def test_span_past_container_end_is_a_miss(self, tmp_path):
        """An index entry that no longer resolves -- pointing beyond
        the data (rows lost to a torn copy), labels that do not match
        the row count, a malformed entry -- must read as a miss, never
        as garbage rows, and the next put must heal it rather than
        leave the key a miss forever."""
        def shift(entry):
            entry["offset"] += 1000

        def drop_a_label(entry):
            entry["labels"].pop()

        def mangle(entry):
            entry.clear()
            entry["offset"] = "not a number"

        for k, corrupt in enumerate((shift, drop_a_label, mangle)):
            namespace = f"oob{k}"
            store = ColumnarTraceStore(tmp_path, namespace=namespace)
            store.put("q0", make_trace(0))
            store.put("q1", make_trace(1))
            doc = json.loads(store.index_path.read_text())
            corrupt(doc["entries"][_digest(namespace, "q0")])
            store.index_path.write_text(json.dumps(doc))
            fresh = ColumnarTraceStore(tmp_path, namespace=namespace)
            assert fresh.get("q0") is None
            fresh.put("q0", make_trace(0))
            assert_traces_equal(fresh.get("q0"), make_trace(0))
            # ... for every reader, and without disturbing or
            # overwriting entries that still resolve.
            reader = ColumnarTraceStore(tmp_path, namespace=namespace)
            assert_traces_equal(reader.get("q0"), make_trace(0))
            reader.put("q1", make_trace(7))  # first writer still wins
            assert_traces_equal(reader.get("q1"), make_trace(1))
            assert len(reader) == 2

    def test_torn_trailing_append_is_truncated_by_next_put(
        self, tmp_path
    ):
        store = ColumnarTraceStore(tmp_path, namespace="torn")
        store.put("q0", make_trace(0))
        intact = store.rows_path.stat().st_size
        with open(store.rows_path, "ab") as f:
            f.write(b"\x01\x02\x03")  # partial row: writer died mid-append
        # Published entries still read fine (the tail is unreferenced).
        assert_traces_equal(
            ColumnarTraceStore(tmp_path, namespace="torn").get("q0"),
            make_trace(0),
        )
        store2 = ColumnarTraceStore(tmp_path, namespace="torn")
        store2.put("q1", make_trace(1))
        assert store2.rows_path.stat().st_size % ROW_DTYPE.itemsize == 0
        assert store2.rows_path.stat().st_size > intact
        assert_traces_equal(store2.get("q0"), make_trace(0))
        assert_traces_equal(store2.get("q1"), make_trace(1))

    def test_concurrent_writers_and_readers(self, tmp_path):
        """Threaded writers (distinct keys) race readers on one
        namespace; every published entry must always read back whole."""
        n_writers, per_writer = 4, 8
        errors: list[BaseException] = []
        stop = threading.Event()

        def write(w: int) -> None:
            try:
                store = ColumnarTraceStore(tmp_path, namespace="race")
                for i in range(per_writer):
                    store.put(f"w{w}-q{i}", make_trace(w * per_writer + i))
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        def read() -> None:
            try:
                store = ColumnarTraceStore(tmp_path, namespace="race")
                while not stop.is_set():
                    for digest_free_key in list(store.keys_digests()):
                        pass  # index snapshots must never raise
                    for w in range(n_writers):
                        for i in range(per_writer):
                            loaded = store.get(f"w{w}-q{i}")
                            if loaded is not None:
                                assert_traces_equal(
                                    loaded,
                                    make_trace(w * per_writer + i),
                                )
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(2)]
        writers = [
            threading.Thread(target=write, args=(w,))
            for w in range(n_writers)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        final = ColumnarTraceStore(tmp_path, namespace="race")
        assert len(final) == n_writers * per_writer
        for w in range(n_writers):
            for i in range(per_writer):
                assert_traces_equal(
                    final.get(f"w{w}-q{i}"),
                    make_trace(w * per_writer + i),
                )


class TestColumnarTraceCache:
    """``TraceCache`` is the columnar store plus the workload namespace
    recipe and hit/miss accounting."""

    SQL = selection_query(4)

    def _db(self):
        return tpch_database(0.002, mysql_profile(), seed=0,
                             tables=["lineitem"])

    def _cache(self, tmp_path, sf=0.002):
        return TraceCache.for_workload(
            tmp_path, "mysql", sf, seed=0, tables=("lineitem",)
        )

    def test_for_workload_columnar_backend(self, tmp_path):
        cache = self._cache(tmp_path)
        assert isinstance(cache, ColumnarTraceStore)
        assert cache.namespace == "mysql-sf0.002-seed0-lineitem"
        # Equal workloads share one container, different ones do not.
        assert self._cache(tmp_path).rows_path == cache.rows_path
        assert self._cache(tmp_path, sf=0.01).rows_path != cache.rows_path
        everything = TraceCache.for_workload(tmp_path, "mysql", 0.002)
        assert everything.namespace == "mysql-sf0.002-seed0-all"

    def test_second_process_skips_execution(self, sut, tmp_path):
        cache = self._cache(tmp_path)
        db1 = self._db()
        WorkloadRunner(db1, sut, trace_cache=cache).cached_execution(
            self.SQL, keep_result=False
        )
        assert db1.executions == 1
        assert cache.misses == 1

        db2 = self._db()
        fresh = self._cache(tmp_path)
        restored = WorkloadRunner(
            db2, sut, trace_cache=fresh
        ).cached_execution(self.SQL, keep_result=False)
        assert db2.executions == 0
        assert (fresh.hits, fresh.misses) == (1, 0)
        assert restored.result is None

    def test_cluster_simulator_runs_on_columnar_cache(
        self, mysql_db, sut, tmp_path
    ):
        from repro.cluster import (
            ClusterSimulator,
            RoundRobinRouter,
            uniform_fleet,
        )
        from repro.workloads.arrivals import poisson_arrivals

        cache = TraceCache(tmp_path, namespace="sim")
        queries = [selection_query(i) for i in range(1, 5)]
        stream = poisson_arrivals(
            [queries[i % 4] for i in range(40)], 0.05, seed=3
        )
        baseline = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
        ).run(stream)
        via_cache = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            trace_cache=cache,
        ).run(stream)
        assert via_cache.wall_joules == pytest.approx(
            baseline.wall_joules, rel=1e-9
        )
        assert (cache.hits, cache.misses) == (0, 4)
        # A second simulator over the same store replays from the
        # shared container.
        again = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            trace_cache=cache,
        ).run(stream)
        assert again.wall_joules == pytest.approx(
            baseline.wall_joules, rel=1e-9
        )
        assert (cache.hits, cache.misses) == (4, 4)
