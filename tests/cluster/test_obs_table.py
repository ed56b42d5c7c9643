"""The columnar span table, its bulk exporters and its one-parse loader.

* Byte identity: for every span kind the simulator records -- the
  ``fleet_traced`` shape, faults (crash, recover, wake-failure, retry,
  dead-letter, re-replicate), master and node QED (dispatch, queue-wait,
  merge), a power-cap queue-wait, zero-duration spans, an empty run, a
  run with idle nodes and a hand-built trace of awkward values -- the
  Chrome and JSONL files are byte for byte what the per-dict oracle in
  ``obs_oracle`` writes, and loading them gives the oracle loader's
  spans and the same ``obs report`` span table.
* Tied duplicate arrivals each get their own terminal (FIFO per key),
  and tied queries in one batch each wait under their own arrival.
* ``validate_trace`` checks the tracer's promises from the columns.
* Malformed trace files fail by name: one table of documents, each
  with its outcome, and the CLI exits 2 naming the file for every bad
  row.
"""

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import obs_oracle
from repro.cli import main
from repro.cluster import (
    ClusterSimulator,
    ConsolidatePlacement,
    DynamicConsolidateRouter,
    FaultPlan,
    MasterQueue,
    PowerCapRouter,
    RetryPolicy,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.cluster.faults import FaultSpec
from repro.core.qed.policy import BatchPolicy
from repro.db.profiles import mysql_profile
from repro.measurement.ablations import fault_plan, replication_placement
from repro.obs import (
    MetricsRegistry,
    SpanTable,
    SpanTracer,
    TraceFormatError,
    export_chrome,
    export_jsonl,
    load_trace,
    render_span_stats,
    span_stats,
    validate_trace,
)
from repro.obs.tracer import MASTER_TRACK, Span
from repro.workloads.arrivals import Arrival, poisson_arrivals
from repro.workloads.selection import selection_workload
from repro.workloads.tpch.generator import tpch_database


def _stream(count=80, distinct=10, mean_s=0.05, seed=3):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _dynamic():
    return DynamicConsolidateRouter(max_backlog_s=1.5,
                                    target_utilization=0.5)


@pytest.fixture(scope="module")
def lineitem_db():
    """The ``fleet_traced`` database shape (lineitem only) at SF 0.005."""
    return tpch_database(0.005, mysql_profile(), seed=0,
                         tables=["lineitem"])


def _traced(db, specs, router, stream, **kwargs):
    tracer = SpanTracer()
    m = ClusterSimulator(db, specs, router, tracer=tracer,
                         **kwargs).run(stream)
    return tracer, m


def _fleet_traced(mysql_db, lineitem_db):
    return _traced(
        lineitem_db,
        uniform_fleet(100, wake_latency_s=30.0, queue_policy=None),
        RoundRobinRouter(), _stream(2000, 50, 0.01, seed=0),
        metrics=MetricsRegistry(window_s=30.0),
    )


def _faulted(mysql_db, lineitem_db):
    return _traced(mysql_db, uniform_fleet(4, wake_latency_s=0.5),
                   _dynamic(), _stream(), faults=fault_plan(),
                   retry=RetryPolicy(max_attempts=4, backoff_s=0.05))


def _replicated(mysql_db, lineitem_db):
    specs = uniform_fleet(4, wake_latency_s=0.5)
    return _traced(mysql_db, specs, _dynamic(), _stream(),
                   faults=fault_plan(), placement=replication_placement(specs),
                   retry=RetryPolicy(max_attempts=4, backoff_s=0.05))


def _dead_letter(mysql_db, lineitem_db):
    """Integer fault times: the JSONL export keeps them integers."""
    plan = FaultPlan([
        FaultSpec("crash", "node00", at_s=1, recover_s=3),
        FaultSpec("wake-failure", "node01", start_s=0, end_s=2,
                  probability=1.0),
    ], seed=7)
    return _traced(mysql_db, uniform_fleet(2, wake_latency_s=0.5),
                   _dynamic(), _stream(), faults=plan,
                   retry=RetryPolicy(max_attempts=2, backoff_s=0.05))


def _master_qed(mysql_db, lineitem_db):
    return _traced(mysql_db, uniform_fleet(4, wake_latency_s=0.5),
                   _dynamic(), _stream(),
                   master_queue=MasterQueue(BatchPolicy(4, max_wait_s=0.2),
                                            placement=ConsolidatePlacement()))


def _node_qed(mysql_db, lineitem_db):
    policy = BatchPolicy(threshold=5, max_wait_s=0.1)
    return _traced(mysql_db, uniform_fleet(2, queue_policy=policy),
                   RoundRobinRouter(), _stream())


def _power_cap(mysql_db, lineitem_db):
    return _traced(mysql_db, uniform_fleet(4), PowerCapRouter(cap_w=445.0),
                   _stream(count=120, mean_s=0.005))


def _zero_duration(mysql_db, lineitem_db):
    """Zero wake latency: every wake span exports as an instant."""
    return _traced(mysql_db, uniform_fleet(4, wake_latency_s=0.0),
                   _dynamic(), _stream())


def _empty(mysql_db, lineitem_db):
    return _traced(mysql_db, uniform_fleet(2), RoundRobinRouter(), [])


def _idle_nodes(mysql_db, lineitem_db):
    """Four awake nodes, two arrivals: two nodes log nothing, so they
    get no track and no thread in the Chrome header."""
    return _traced(mysql_db, uniform_fleet(4), RoundRobinRouter(),
                   _stream(count=2))


def _awkward(mysql_db, lineitem_db):
    """Values the simulator never records but the format must carry:
    ``%`` and quotes in names, keys and strings, non-ASCII text,
    ``None``/``bool``/list args, NaN and infinities, -0.0, integer and
    numpy times."""
    tracer = SpanTracer()
    tracer.begin_run({"run_id": "awkward", "fingerprint": {}})
    first = tracer.arrival("SELECT '%s' -- \"q\" é", 0)
    tracer.span("100% busy", "node-%d", -0.0, np.float64(0.25),
                parent=first, **{"k%": None, "flag": True, "xs": [1, 2.5]})
    tracer.instant("odd", MASTER_TRACK, 1, nan=float("nan"),
                   inf=float("inf"), ninf=-float("inf"), big=10**20)
    tracer.span("wake", "node-%d", 2.0, 2.0)
    tracer.terminal("served", 0, 3.0, track="node-%d", window=2)
    tracer.finish(3.0)
    return tracer, None


SCENARIOS = {
    "fleet_traced": (_fleet_traced, {"arrival", "playback", "served"}),
    "faulted": (_faulted, {"crash", "recover", "wake-failure", "retry"}),
    "replicated": (_replicated, {"crash", "re-replicate"}),
    "dead_letter": (_dead_letter, {"dead-letter", "retry"}),
    "master_qed": (_master_qed, {"dispatch", "queue-wait", "merge"}),
    "node_qed": (_node_qed, {"dispatch", "queue-wait", "merge"}),
    "power_cap": (_power_cap, {"queue-wait"}),
    "zero_duration": (_zero_duration, {"wake"}),
    "empty": (_empty, set()),
    "idle_nodes": (_idle_nodes, {"served"}),
    "awkward": (_awkward, {"100% busy", "odd"}),
}


@pytest.fixture(scope="module")
def scenario_runs(mysql_db, lineitem_db):
    return {
        name: build(mysql_db, lineitem_db)
        for name, (build, _) in SCENARIOS.items()
    }


class TestByteIdentity:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    @pytest.mark.parametrize("suffix, exporter, oracle", [
        (".json", export_chrome, obs_oracle.export_chrome),
        (".jsonl", export_jsonl, obs_oracle.export_jsonl),
    ], ids=["chrome", "jsonl"])
    def test_export_matches_oracle_bytes(self, scenario_runs, tmp_path,
                                         name, suffix, exporter, oracle):
        tracer, m = scenario_runs[name]
        names = {span.name for span in tracer.spans}
        assert SCENARIOS[name][1] <= names
        new, old = tmp_path / f"new{suffix}", tmp_path / f"old{suffix}"
        assert exporter(str(new), tracer, m) == oracle(str(old), tracer, m)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("name", list(SCENARIOS))
    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_load_matches_oracle(self, scenario_runs, tmp_path, name,
                                 suffix):
        tracer, m = scenario_runs[name]
        path = str(tmp_path / f"trace{suffix}")
        (obs_oracle.export_jsonl if suffix == ".jsonl"
         else obs_oracle.export_chrome)(path, tracer, m)
        meta, spans = load_trace(path)
        old_meta, old_spans = obs_oracle.load_trace(path)
        assert isinstance(spans, SpanTable)
        assert json.dumps(meta) == json.dumps(old_meta)
        assert len(spans) == len(old_spans)
        for span, old in zip(spans, old_spans):
            assert (span.span_id, span.parent_id, span.name, span.track) \
                == (old["id"], old["parent"], old["name"], old["track"])
            assert json.dumps([span.start_s, span.end_s, span.args]) \
                == json.dumps([old["start_s"], old["end_s"], old["args"]])
        # The ``obs report`` span table prints the same text as the
        # per-dict statistics over the oracle loader's spans.
        assert render_span_stats(span_stats(spans)) == render_span_stats(
            obs_oracle.span_stats(old_spans)
        )
        if name != "awkward":
            assert validate_trace(meta, spans) == []

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_tracks_are_those_that_carry_spans(self, scenario_runs, name):
        tracer, _ = scenario_runs[name]
        assert tracer.tracks == obs_oracle.tracks(tracer.spans)

    def test_idle_nodes_get_no_track(self, scenario_runs):
        tracer, _ = scenario_runs["idle_nodes"]
        assert tracer.tracks == [MASTER_TRACK, "node00", "node01"]

    def test_span_stats_totals_are_bit_identical(self, scenario_runs):
        tracer, _ = scenario_runs["faulted"]
        old = obs_oracle.span_stats(
            [obs_oracle.span_dict(span) for span in tracer.spans]
        )
        new = span_stats(tracer.spans)
        assert {k: v["total_s"].hex() for k, v in new.items()} \
            == {k: v["total_s"].hex() for k, v in old.items()}
        assert new == old

    def test_fleet_traced_shape_spans_are_all_recorded(self, scenario_runs):
        tracer, m = scenario_runs["fleet_traced"]
        assert len(tracer.spans) == 3 * 2000
        assert len(tracer.terminal_spans()) == m.served == 2000


class TestSpanTable:
    def test_view_reads_rows_as_spans(self):
        tracer = SpanTracer()
        a = tracer.arrival("q", 0.5)
        w = tracer.span("playback", "node00", 0.5, 1.0, queries=1)
        t = tracer.terminal("served", 0, 1.0, track="node00", window=w)
        spans = tracer.spans
        assert (a, w, t) == (1, 2, 3) and len(spans) == 3
        assert spans[-1] == spans[2] == Span(
            3, 1, "served", "node00", 1.0, 1.0,
            {"sql": "q", "arrival_s": 0.5, "window": 2},
        )
        assert spans[:2] == list(spans)[:2]
        assert spans == list(spans) and spans != list(spans)[:2]
        assert tracer.tracks == ["master", "node00"]
        assert [s.span_id for s in tracer.terminal_spans()] == [3]
        with pytest.raises(IndexError):
            spans[3]

    def test_empty_view_equals_empty_list(self):
        assert SpanTracer().spans == []
        assert len(SpanTracer().spans) == 0

    def test_kinds_intern_name_and_arg_keys(self):
        tracer = SpanTracer()
        tracer.span("queue-wait", MASTER_TRACK, 0.0, 1.0, sql="q")
        tracer.span("queue-wait", MASTER_TRACK, 0.0, 1.0, sql="q",
                    partition="p", dispatch=1)
        tracer.span("queue-wait", MASTER_TRACK, 0.0, 2.0, sql="r")
        table = tracer.spans
        assert table.kind[0] == table.kind[2] != table.kind[1]
        assert table.args == [("q",), ("q", "p", 1), ("r",)]


class TestTiedArrivals:
    def test_each_tied_arrival_gets_its_own_terminal(self, mysql_db):
        q0, q1 = selection_workload(2).queries
        stream = [Arrival(q0, 0.5), Arrival(q0, 0.5), Arrival(q1, 0.7)]
        tracer, m = _traced(mysql_db, uniform_fleet(2), RoundRobinRouter(),
                            stream)
        assert m.served == 3
        terminals = Counter(s.parent_id for s in tracer.terminal_spans())
        assert terminals == {1: 1, 2: 1, 3: 1}
        meta = {"format": "repro-obs-trace", "run_id": m.run_id,
                "fingerprint": {}, "horizon_s": m.horizon_s}
        assert validate_trace(meta, tracer.spans) == []

    def test_terminals_take_their_own_arrival(self):
        tracer = SpanTracer()
        first = tracer.arrival("q", 0.5)
        second = tracer.arrival("q", 0.5)
        assert [tracer.arrival_span(i) for i in (0, 1)] == [first, second]
        terminals = [
            tracer.spans[tracer.terminal("served", i, 1.0) - 1]
            for i in (1, 0)
        ]
        assert [t.parent_id for t in terminals] == [second, first]
        assert all(t.args == {"sql": "q", "arrival_s": 0.5}
                   for t in terminals)

    def test_tied_batch_members_wait_under_their_own_arrival(self):
        tracer = SpanTracer()
        first = tracer.arrival("q", 0.5)
        second = tracer.arrival("q", 0.5)
        queries = [SimpleNamespace(sql="q", arrival_s=0.5, query_id=i)
                   for i in (1, 0)]
        tracer.dispatch("p", SimpleNamespace(dispatch_s=1.0, size=2,
                                             queries=queries))
        waits = [s.parent_id for s in tracer.spans if s.name == "queue-wait"]
        assert waits == [second, first]

    def test_a_tie_split_across_master_batches(self, mysql_db):
        """The second of two tied arrivals waits in the next batch: its
        queue-wait and its served span link to its own arrival, and
        every window's served spans to the arrivals it answered."""
        q = selection_workload(1).queries[0]
        stream = [Arrival(q, 0.4), Arrival(q, 0.5), Arrival(q, 0.5),
                  Arrival(q, 0.6)]
        tracer = SpanTracer()
        schedule = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            master_queue=MasterQueue(BatchPolicy(2)), tracer=tracer,
        ).schedule(stream)
        spans = list(tracer.spans)
        arrivals = [s.span_id for s in spans if s.name == "arrival"]
        waits = [s.parent_id for s in spans if s.name == "queue-wait"]
        assert waits == [arrivals[0], arrivals[2]]
        for node in schedule.nodes:
            windows = [s.span_id for s in spans if s.name == "playback"
                       and s.track == node.spec.name]
            assert len(windows) == len(node.scheduled)
            for work, window in zip(node.scheduled, windows):
                assert [s.parent_id for s in spans if s.name == "served"
                        and s.args["window"] == window] == [
                    arrivals[i] for i in work.queries
                ]

    def test_a_crashed_tie_keeps_its_retry_and_terminal_together(
        self, mysql_db
    ):
        """Two tied arrivals, one lost to a crash mid-window on a node
        that stays down: its retry and its served terminal share one
        arrival, and the fault report and the SLA split agree it was
        the only one affected."""
        q = selection_workload(1).queries[0]
        tracer = SpanTracer()
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            faults=FaultPlan([FaultSpec("crash", "node00", at_s=1.001)]),
            retry=RetryPolicy(3, 0.05), tracer=tracer,
        ).run([Arrival(q, 1.0), Arrival(q, 1.0)])
        (retry,) = [s for s in tracer.spans if s.name == "retry"]
        served = {t.parent_id: t for t in tracer.terminal_spans()}
        assert sorted(served) == [1, 2]
        assert served[retry.parent_id].start_s > retry.args["ready_s"]
        assert m.sla_split(10.0)["affected_total"] == m.faults.to_dict()[
            "affected_queries"
        ] == 1

    def test_tied_queries_in_a_master_batch(self, mysql_db):
        q0, q1 = selection_workload(2).queries
        stream = [Arrival(q0, 0.5), Arrival(q0, 0.5), Arrival(q1, 0.7)]
        tracer, m = _traced(
            mysql_db, uniform_fleet(2), RoundRobinRouter(), stream,
            master_queue=MasterQueue(BatchPolicy(4, max_wait_s=0.2)),
        )
        assert m.served == 3
        waits = Counter(s.parent_id for s in tracer.spans
                        if s.name == "queue-wait")
        assert waits == {1: 1, 2: 1, 3: 1}


_META = {"format": "repro-obs-trace", "run_id": "x", "fingerprint": {},
         "horizon_s": 1.0}


class TestValidate:
    def test_arrival_without_terminal(self):
        tracer = SpanTracer()
        tracer.arrival("q", 0.0)
        assert validate_trace(_META, tracer.spans) == [
            "span 0: arrival with 0 terminals, not 1"
        ]

    def test_arrival_with_two_terminals(self):
        tracer = SpanTracer()
        tracer.arrival("q", 0.0)
        for _ in range(2):
            tracer.instant("served", MASTER_TRACK, 1.0, parent=1,
                           sql="q", arrival_s=0.0)
        assert validate_trace(_META, tracer.spans) == [
            "span 0: arrival with 2 terminals, not 1"
        ]

    def test_dangling_parent_and_orphan_terminal(self):
        tracer = SpanTracer()
        tracer.instant("retry", MASTER_TRACK, 1.0, parent=7)
        tracer.instant("served", MASTER_TRACK, 1.0, sql="q", arrival_s=0.0)
        assert validate_trace(_META, tracer.spans) == [
            "span 0: parent 7 is not a span in the trace",
            "span 1: terminal not linked to an arrival",
        ]

    def test_time_order(self):
        tracer = SpanTracer()
        tracer.span("sleep", "node00", 2.0, 1.0)
        assert validate_trace(_META, tracer.spans) == [
            "span 0: end_s before start_s"
        ]


_META_LINE = json.dumps({"type": "meta", **_META})
_SPAN = {"type": "instant", "id": 1, "parent": None, "name": "arrival",
         "track": "master", "start_s": 0.5, "end_s": 0.5,
         "args": {"sql": "q"}}
_EVENT = {"ph": "i", "s": "t", "pid": 1, "tid": 0, "name": "arrival",
          "cat": "cluster", "ts": 5e5, "args": {"sql": "q", "id": 1}}


def _jsonl(*lines):
    return "\n".join([_META_LINE, *lines]) + "\n"


def _chrome(*events, **extra):
    return json.dumps({"traceEvents": list(events), **extra})


#: (id, file suffix, document, expected message after "<path>: ", or
#: None when the document loads)
TRACE_DOCUMENTS = [
    ("chrome-valid", ".json", _chrome(_EVENT, metadata=_META), None),
    ("jsonl-valid", ".jsonl", _jsonl(json.dumps(_SPAN)), None),
    ("events-not-a-list", ".json", '{"traceEvents": 5}',
     "document: 'traceEvents' must be a list of events, got 5"),
    ("event-not-an-object", ".json", '{"traceEvents": [1]}',
     "event 0: expected an object, got 1"),
    ("string-ts", ".json", '{"traceEvents": [{"ph": "X", "ts": "soon"}]}',
     "event 0: 'ts' must be a number, got 'soon'"),
    ("no-phase", ".json", _chrome({"ts": 1.0}), "event 0: missing 'ph'"),
    ("no-dur", ".json", _chrome(dict(_EVENT, ph="X")),
     "event 0: missing 'dur'"),
    ("args-not-an-object", ".json", _chrome(dict(_EVENT, args=[1])),
     "event 0: 'args' must be an object, got [1]"),
    ("id-out-of-order", ".json",
     _chrome({"ph": "M", "name": "x"}, dict(_EVENT, args={"id": 2})),
     "event 1: 'id' must be 1 (span ids run 1, 2, ... in file order), "
     "got 2"),
    ("parent-zero", ".json",
     _chrome(dict(_EVENT, args={"id": 1, "parent": 0})),
     "event 0: 'parent' must be a span id (>= 1) or null, got 0"),
    ("parent-bool", ".json",
     _chrome(dict(_EVENT, args={"id": 1, "parent": True})),
     "event 0: 'parent' must be a span id or null, got True"),
    ("bad-thread-name", ".json",
     _chrome({"ph": "M", "name": "thread_name", "tid": 0, "args": {}}),
     "event 0: 'args' must be an object with a string 'name', got {}"),
    ("bad-thread-id", ".json",
     _chrome({"ph": "M", "name": "thread_name", "tid": [0],
              "args": {"name": "master"}}),
     "event 0: 'tid' must be an integer, got [0]"),
    ("metadata-not-an-object", ".json", _chrome(metadata=[1]),
     "document: 'metadata' must be an object, got [1]"),
    ("jsonl-truncated", ".jsonl", _jsonl(json.dumps(_SPAN)[:40]),
     "line 2: expected a JSON record ("),
    ("jsonl-not-an-object", ".jsonl", _jsonl("[1]"),
     "line 2: expected a span object, got [1]"),
    ("jsonl-string-time", ".jsonl",
     _jsonl(json.dumps(dict(_SPAN, start_s="x"))),
     "line 2: 'start_s' must be a number, got 'x'"),
    ("jsonl-no-name", ".jsonl",
     _jsonl("", json.dumps({k: v for k, v in _SPAN.items() if k != "name"})),
     "line 3: missing 'name'"),
    ("not-json", ".json", "not a trace", "line 1: expected JSONL or a"),
]
_INVALID = [row for row in TRACE_DOCUMENTS if row[3] is not None]


def _write(tmp_path, suffix, text):
    path = tmp_path / f"trace{suffix}"
    path.write_text(text)
    return str(path)


class TestMalformedTraces:
    @pytest.mark.parametrize("suffix, text, message",
                             [row[1:] for row in TRACE_DOCUMENTS],
                             ids=[row[0] for row in TRACE_DOCUMENTS])
    def test_loader_names_file_place_key_and_value(self, tmp_path, suffix,
                                                   text, message):
        path = _write(tmp_path, suffix, text)
        if message is None:
            meta, spans = load_trace(path)
            assert validate_trace(meta, spans) == [
                "span 0: arrival with 0 terminals, not 1"
            ]
            return
        with pytest.raises(TraceFormatError) as info:
            load_trace(path)
        assert str(info.value).startswith(f"{path}: {message}")
        assert info.value.path == path

    @pytest.mark.parametrize("suffix, text, message",
                             [row[1:] for row in _INVALID],
                             ids=[row[0] for row in _INVALID])
    def test_report_exits_2_naming_the_file(self, tmp_path, capsys, suffix,
                                            text, message):
        path = _write(tmp_path, suffix, text)
        assert main(["obs", "report", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
