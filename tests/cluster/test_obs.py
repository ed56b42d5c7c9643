"""Observability layer: span tracing, metrics, energy attribution.

Covers the ISSUE-7 acceptance points: tracing off is bitwise identity
(the instrumented simulator with the null tracer produces the same
summary, energies included, as one never handed a tracer); per-phase
joule attribution reconciles with the measurement's independently
modeled total to <= 1e-9; every arrival gets exactly one terminal span
(served, shed, or dead-lettered) under the canonical fault plan; run
ids are deterministic functions of the full configuration; both trace
export formats round-trip through the loader and schema validator; and
streaming metrics sample on simulated-time window boundaries with
counters that agree with the fault report.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import (
    ClusterSimulator,
    DynamicConsolidateRouter,
    FaultPlan,
    LeastLoadedRouter,
    MasterQueue,
    RetryPolicy,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.cluster.measure import ClusterMeasurement, QueryResponse
from repro.core.qed.policy import BatchPolicy
from repro.measurement.ablations import fault_plan
from repro.obs import (
    RECONCILE_TOLERANCE,
    TERMINAL_PHASES,
    MetricsRegistry,
    SpanTracer,
    config_fingerprint,
    energy_attribution,
    load_trace,
    render_attribution,
    run_id_for,
    span_stats,
    validate_trace,
    write_metrics,
    write_trace,
)
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload
from window_oracle import response_columns


def _stream(count=60, distinct=10, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _dynamic():
    return DynamicConsolidateRouter(
        max_backlog_s=1.5, target_utilization=0.5
    )


def _faulted_sim(db, tracer=None, metrics=None):
    """The canonical fault scenario (mirrors the perf ablation)."""
    return ClusterSimulator(
        db, uniform_fleet(4, wake_latency_s=0.5), _dynamic(),
        faults=fault_plan(),
        retry=RetryPolicy(max_attempts=4, backoff_s=0.05),
        tracer=tracer, metrics=metrics,
    )


class TestTracingIdentity:
    def test_tracing_off_is_bitwise_identity(self, mysql_db):
        stream = _stream()
        base = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(stream)
        traced = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic(), tracer=SpanTracer()
        ).run(stream)
        assert base.summary() == traced.summary()
        for a, b in zip(base.nodes, traced.nodes):
            assert a.wall_joules == b.wall_joules

    def test_tracing_identity_under_faults(self, mysql_db):
        stream = _stream(count=80, mean_s=0.05, seed=3)
        base = _faulted_sim(mysql_db).run(stream)
        traced = _faulted_sim(mysql_db, tracer=SpanTracer()).run(stream)
        assert base.summary() == traced.summary()

    def test_metrics_do_not_perturb_energies(self, mysql_db):
        stream = _stream()
        base = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(stream)
        metered = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic(),
            metrics=MetricsRegistry(window_s=0.5),
        ).run(stream)
        assert base.summary() == metered.summary()


class TestEnergyAttribution:
    def test_reconciles_to_modeled_total(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(_stream())
        att = energy_attribution(m)
        assert att["reconciliation_rel"] <= RECONCILE_TOLERANCE
        phase_sum = sum(att["phase_totals"].values())
        assert phase_sum == pytest.approx(
            m.modeled_wall_joules, rel=1e-12
        )

    def test_reconciles_under_faults(self, mysql_db):
        m = _faulted_sim(mysql_db).run(
            _stream(count=80, mean_s=0.05, seed=3)
        )
        att = energy_attribution(m)
        assert att["reconciliation_rel"] <= RECONCILE_TOLERANCE
        # The crash write-off is a memo, not a phase: the timeline
        # bills crashed-away time at idle watts, so the memo must not
        # enter (or break) the reconciliation.
        assert att["wasted_by_crash_j"] == m.faults.wasted_joules
        assert att["wasted_by_crash_j"] > 0.0

    def test_render_mentions_reconciliation(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(_stream(count=20))
        text = render_attribution(energy_attribution(m))
        assert "reconciliation" in text
        for node in m.nodes:
            assert node.name in text


class TestTerminalInvariant:
    def test_every_arrival_has_exactly_one_terminal(self, mysql_db):
        stream = _stream(count=80, mean_s=0.05, seed=3)
        tracer = SpanTracer()
        m = _faulted_sim(mysql_db, tracer=tracer).run(stream)
        terminals = tracer.terminal_spans()
        assert all(t.name in TERMINAL_PHASES for t in terminals)
        outcomes = sorted(
            (t.args["sql"], t.args["arrival_s"]) for t in terminals
        )
        assert outcomes == sorted((a.sql, a.time_s) for a in stream)
        by_name = {}
        for t in terminals:
            by_name[t.name] = by_name.get(t.name, 0) + 1
        assert by_name.get("served", 0) == m.served
        # Under an active plan every shed query is a dead-letter.
        assert by_name.get("dead-letter", 0) == len(m.shed)
        assert m.faults.dead_lettered == len(m.shed)

    def test_fault_free_run_serves_every_terminal(self, mysql_db):
        stream = _stream(count=40)
        tracer = SpanTracer()
        m = ClusterSimulator(
            mysql_db, uniform_fleet(3), _dynamic(), tracer=tracer
        ).run(stream)
        terminals = tracer.terminal_spans()
        assert len(terminals) == len(stream) == m.served
        assert {t.name for t in terminals} == {"served"}

    def test_terminal_rejects_unknown_phase(self):
        tracer = SpanTracer()
        tracer.begin_run({})
        with pytest.raises(ValueError, match="terminal"):
            tracer.terminal("vanished", "SELECT 1", 0.0, 1.0)


class TestRunId:
    def test_same_config_same_id(self, mysql_db):
        stream = _stream()
        a = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(stream)
        b = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(stream)
        assert a.run_id is not None
        assert a.run_id == b.run_id
        assert a.fingerprint == b.fingerprint

    def test_id_tracks_configuration(self, mysql_db):
        stream = _stream()
        base = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(stream)
        other_router = ClusterSimulator(
            mysql_db, uniform_fleet(4), RoundRobinRouter()
        ).run(stream)
        other_stream = ClusterSimulator(
            mysql_db, uniform_fleet(4), _dynamic()
        ).run(_stream(seed=2))
        other_fleet = ClusterSimulator(
            mysql_db, uniform_fleet(5), _dynamic()
        ).run(stream)
        ids = {base.run_id, other_router.run_id,
               other_stream.run_id, other_fleet.run_id}
        assert len(ids) == 4

    def test_empty_plan_matches_no_plan(self, mysql_db):
        stream = _stream()
        none = ClusterSimulator(
            mysql_db, uniform_fleet(3), RoundRobinRouter()
        ).run(stream)
        empty = ClusterSimulator(
            mysql_db, uniform_fleet(3), RoundRobinRouter(),
            faults=FaultPlan(),
        ).run(stream)
        assert none.run_id == empty.run_id
        assert none.summary() == empty.summary()

    def test_fingerprint_hash_is_stable(self):
        fp = config_fingerprint(
            uniform_fleet(2), RoundRobinRouter(),
            arrivals=_stream(count=10),
        )
        assert run_id_for(fp) == run_id_for(fp)
        fp2 = config_fingerprint(
            uniform_fleet(2), RoundRobinRouter(),
            arrivals=_stream(count=11),
        )
        assert run_id_for(fp) != run_id_for(fp2)

    def test_summary_carries_run_id(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(_stream(count=20))
        assert m.summary()["run_id"] == m.run_id


class TestExporters:
    def _traced_run(self, db):
        tracer = SpanTracer()
        m = _faulted_sim(db, tracer=tracer).run(
            _stream(count=80, mean_s=0.05, seed=3)
        )
        return tracer, m

    def test_jsonl_round_trip(self, mysql_db, tmp_path):
        tracer, m = self._traced_run(mysql_db)
        path = str(tmp_path / "trace.jsonl")
        meta = write_trace(path, tracer, measurement=m)
        loaded_meta, spans = load_trace(path)
        assert validate_trace(loaded_meta, spans) == []
        assert loaded_meta["run_id"] == m.run_id == meta["run_id"]
        assert len(spans) == len(tracer.spans)
        assert loaded_meta["attribution"]["reconciliation_rel"] \
            <= RECONCILE_TOLERANCE

    def test_chrome_round_trip(self, mysql_db, tmp_path):
        tracer, m = self._traced_run(mysql_db)
        path = str(tmp_path / "trace.json")
        write_trace(path, tracer, measurement=m)
        with open(path) as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "i" for e in events)
        # One named thread per track, master first (tid 0).
        names = {
            e["tid"]: e["args"]["name"] for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "master"
        loaded_meta, spans = load_trace(path)
        assert validate_trace(loaded_meta, spans) == []
        assert len(spans) == len(tracer.spans)

    def test_formats_agree(self, mysql_db, tmp_path):
        tracer, m = self._traced_run(mysql_db)
        write_trace(str(tmp_path / "t.jsonl"), tracer, measurement=m)
        write_trace(str(tmp_path / "t.json"), tracer, measurement=m)
        _, a = load_trace(str(tmp_path / "t.jsonl"))
        _, b = load_trace(str(tmp_path / "t.json"))
        # Chrome stores timestamps in microseconds; round away the
        # unit-conversion float noise before comparing.
        key = lambda s: (s["track"], round(s["start_s"], 6), s["name"])  # noqa: E731
        assert sorted(map(key, a)) == sorted(map(key, b))
        assert span_stats(a).keys() == span_stats(b).keys()

    def test_validator_flags_broken_reconciliation(
        self, mysql_db, tmp_path
    ):
        tracer, m = self._traced_run(mysql_db)
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, tracer, measurement=m)
        meta, spans = load_trace(path)
        meta["attribution"]["reconciliation_rel"] = 1.0
        errors = validate_trace(meta, spans)
        assert any("reconcile" in e for e in errors)

    def test_validator_flags_missing_terminal_args(self):
        meta = {"format": "repro-obs-trace", "run_id": "x",
                "fingerprint": {}, "horizon_s": 1.0}
        spans = [{"name": "served", "track": "master",
                  "start_s": 0.0, "end_s": 0.0, "args": {}}]
        errors = validate_trace(meta, spans)
        assert any("terminal" in e for e in errors)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"nothing": true}')
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestMetrics:
    def test_samples_sit_on_window_boundaries(self, mysql_db):
        registry = MetricsRegistry(window_s=0.5)
        m = ClusterSimulator(
            mysql_db, uniform_fleet(3), _dynamic(), metrics=registry
        ).run(_stream())
        times = [s["t_s"] for s in registry.samples]
        assert times
        assert times[0] == 0.0
        assert times == sorted(times)
        for t in times:
            assert (t / 0.5) == pytest.approx(round(t / 0.5), abs=1e-9)
        assert times[-1] <= m.horizon_s + 1e-9
        assert m.horizon_s - times[-1] < 0.5 + 1e-9

    def test_counters_match_fault_report(self, mysql_db):
        registry = MetricsRegistry(window_s=0.5)
        stream = _stream(count=80, mean_s=0.05, seed=3)
        m = _faulted_sim(mysql_db, metrics=registry).run(stream)
        counters = {c.name: c.value for c in registry.counters()}
        report = m.faults
        assert counters["arrivals"] == len(stream)
        assert counters["crashes"] == report.crashes
        assert counters["retries"] == report.retries
        assert counters.get("dead_lettered", 0.0) == report.dead_lettered

    def test_qed_batches_counted(self, mysql_db):
        registry = MetricsRegistry(window_s=0.5)
        m = ClusterSimulator(
            mysql_db, uniform_fleet(3), LeastLoadedRouter(),
            master_queue=MasterQueue(BatchPolicy(4, max_wait_s=0.2)),
            metrics=registry,
        ).run(_stream())
        counters = {c.name: c.value for c in registry.counters()}
        assert counters["qed_batches"] == m.qed.batches
        assert registry.histogram("batch_size").count == m.qed.batches

    def test_export_schema(self, mysql_db, tmp_path):
        registry = MetricsRegistry(window_s=0.5)
        ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter(),
            metrics=registry,
        ).run(_stream(count=20))
        path = tmp_path / "metrics.json"
        doc = write_metrics(str(path), registry)
        assert doc == json.loads(path.read_text())
        assert doc["format"] == "repro-obs-metrics"
        assert doc["window_s"] == 0.5
        assert doc["counters"]["arrivals"] == 20.0
        sample = doc["samples"][0]
        assert "t_s" in sample and "awake_nodes" in sample

    @pytest.mark.parametrize("window_s", [0.0, -1.0, -0.5])
    def test_rejects_bad_window(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            MetricsRegistry(window_s=window_s)


class TestWindowReportRegressions:
    def test_zero_horizon_emits_one_well_formed_window(self):
        m = ClusterMeasurement(0.0, [], response_columns())
        windows = m.window_report(30.0)
        assert len(windows) == 1
        w = windows[0]
        assert (w.start_s, w.end_s) == (0.0, 0.0)
        assert w.arrivals == 0 and w.served == 0
        assert w.modeled_joules == 0.0

    def test_float_noise_horizon_keeps_window_count(self):
        # 3 x 0.1 accumulates to 0.30000000000000004; the report must
        # tile it as 3 windows, not 3 plus a zero-width tail.
        horizon = 0.1 + 0.1 + 0.1
        m = ClusterMeasurement(horizon, [], response_columns())
        windows = m.window_report(0.1)
        assert len(windows) == 3
        assert windows[-1].end_s == horizon
        assert all(w.span_s > 0 for w in windows)

    def test_final_completion_counted_exactly_once(self):
        horizon = 0.30000000000000004
        m = ClusterMeasurement(
            horizon_s=horizon, nodes=[],
            response_columns=response_columns(
                QueryResponse("q", "n", 0.0, 0.0, horizon)
            ),
        )
        windows = m.window_report(0.1)
        assert sum(w.served for w in windows) == 1
        assert windows[-1].served == 1

    def test_partial_final_window_closes_at_horizon(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(2), RoundRobinRouter()
        ).run(_stream(count=20))
        window_s = m.horizon_s / 2.5  # guarantees a partial tail
        windows = m.window_report(window_s)
        assert windows[-1].end_s == m.horizon_s
        assert windows[-1].span_s > 0
        assert sum(w.served for w in windows) == m.served

    def test_windows_tile_modeled_energy(self, mysql_db):
        m = ClusterSimulator(
            mysql_db, uniform_fleet(3), _dynamic()
        ).run(_stream())
        windows = m.window_report(0.7)
        total = sum(w.modeled_joules for w in windows)
        assert total == pytest.approx(m.modeled_wall_joules, rel=1e-9)


class TestCli:
    def test_traced_run_and_report(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        rc = main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "20", "--distinct", "4",
            "--policy", "spread",
            "--trace", trace, "--metrics", metrics,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run id" in out
        assert "energy reconcile" in out
        rc = main(["obs", "report", trace])
        assert rc == 0
        assert "trace valid" in capsys.readouterr().out
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["counters"]["arrivals"] == 20.0

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_unwritable_export_path_is_a_named_error(
        self, flag, tmp_path, capsys,
    ):
        rc = main([
            "cluster", "--sf", "0.002", "--nodes", "2",
            "--arrivals", "20", "--distinct", "4",
            flag, str(tmp_path / "no-such-dir" / "out.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-dir" in err

    def test_report_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not a trace")
        assert main(["obs", "report", str(path)]) == 2
        assert "error" in capsys.readouterr().err
