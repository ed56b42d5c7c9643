"""``ClusterSimulator.schedule`` on ``ArrivalStream`` columns: one
coercion at the top (lists still work, bad input is a named error and
CLI exit code 2), a sort only when needed, and run identities that did
not move when arrivals stopped being objects."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import (
    ClusterSimulator,
    ConsolidatePlacement,
    DynamicConsolidateRouter,
    MasterQueue,
    RetryPolicy,
    RoundRobinRouter,
    uniform_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.measurement import ablations
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    arrivals_digest,
    config_fingerprint,
    run_id_for,
)
from repro.workloads.arrivals import (
    Arrival,
    ArrivalStream,
    poisson_arrivals,
)
from repro.workloads.selection import selection_workload

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _stream(count=60, distinct=10, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _sim(db, **kwargs):
    return ClusterSimulator(db, uniform_fleet(3), RoundRobinRouter(),
                            **kwargs)


class TestScheduleCoercion:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_list_tuple_and_stream_are_one_run(self, mysql_db, vectorized):
        stream = _stream()
        runs = [
            _sim(mysql_db).run(form, vectorized=vectorized)
            for form in (stream, list(stream), tuple(stream), iter(stream))
        ]
        assert len({m.run_id for m in runs}) == 1
        assert all(m.summary() == runs[0].summary() for m in runs)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_unsorted_input_is_sorted_stably(self, mysql_db, vectorized):
        stream = _stream(count=40)
        ties = list(stream) + [Arrival("SELECT 1 FROM lineitem", a.time_s)
                               for a in stream[:5]]
        shuffled = ties[::-1]
        want = _sim(mysql_db).run(
            sorted(shuffled, key=lambda a: a.time_s), vectorized=vectorized
        )
        got = _sim(mysql_db).run(shuffled, vectorized=vectorized)
        assert got.run_id == want.run_id
        assert got.summary() == want.summary()
        assert [
            (r.sql, r.arrival_s, r.node) for r in got.responses
        ] == [(r.sql, r.arrival_s, r.node) for r in want.responses]

    def test_only_statements_that_occur_are_executed(self, mysql_db):
        """A slice keeps the parent's statement table; execute-once
        must still touch only what the slice contains."""
        stream = _stream(count=60, distinct=10)
        sim = _sim(mysql_db)
        schedule = sim.schedule(stream[:3])
        assert list(schedule.table) == [a.sql for a in stream[:3]]
        traces = list(schedule.table)
        assert [traces[c] for c in schedule.windows.trace_idx] == [
            a.sql for a in stream[:3]
        ]

    def test_empty_stream_in_any_form(self, mysql_db):
        ids = {
            _sim(mysql_db).run(form).run_id
            for form in ([], (), ArrivalStream((), (), ()))
        }
        assert len(ids) == 1

    def test_empty_stream_on_a_featured_fleet(self, mysql_db):
        """No special empty-stream path: the event loop itself renders
        the zero run, whatever is attached to it."""
        tracer, registry = SpanTracer(), MetricsRegistry(window_s=0.5)
        m = ClusterSimulator(
            mysql_db, uniform_fleet(4, wake_latency_s=0.5),
            DynamicConsolidateRouter(max_backlog_s=1.0),
            master_queue=MasterQueue(
                BatchPolicy(4, max_wait_s=0.2),
                placement=ConsolidatePlacement(),
            ),
            faults=ablations.fault_plan(),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.05),
            tracer=tracer, metrics=registry,
        ).run([])
        assert (m.served, len(m.shed), m.horizon_s) == (0, 0, 0.0)
        assert m.wall_joules == 0.0
        assert m.qed.mode == "master" and m.qed.batches == 0
        assert m.faults.crashes == m.faults.retries == 0
        assert tracer.spans == []
        assert [row["t_s"] for row in registry.samples] == [0.0]
        assert len(m.window_report(30.0)) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_times_are_a_named_error(self, mysql_db, bad):
        stream = list(_stream(count=5))
        stream[3] = Arrival(stream[3].sql, bad)
        with pytest.raises(ValueError, match="arrival #3 has time_s"):
            _sim(mysql_db).schedule(stream)

    def test_bad_sql_is_a_named_error(self, mysql_db):
        stream = list(_stream(count=5))
        stream[2] = Arrival(42, stream[2].time_s)
        with pytest.raises(ValueError, match="arrival #2 has non-str SQL"):
            _sim(mysql_db).schedule(stream)
        with pytest.raises(ValueError, match="arrival #0 is not an Arrival"):
            _sim(mysql_db).schedule(["SELECT 1"])

    def test_master_loop_reads_the_columns(self, mysql_db):
        stream = _stream()
        runs = [
            _sim(
                mysql_db,
                master_queue=MasterQueue(BatchPolicy(4, max_wait_s=0.2)),
            ).run(form)
            for form in (stream, list(stream))
        ]
        assert runs[0].summary() == runs[1].summary()
        assert runs[0].qed.batches > 0


class TestCliExitCode:
    @pytest.mark.parametrize("flags", [
        ["--mean-interarrival", "nan"],
        ["--mean-interarrival", "inf"],
        ["--profile", "uniform", "--mean-interarrival", "inf"],
    ])
    def test_unusable_arrival_times_exit_2(self, flags, capsys):
        rc = main(["cluster", "--sf", "0.002", "--nodes", "2",
                   "--arrivals", "10", "--distinct", "2", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: arrival #0 has time_s" in err


#: ``arrivals_digest`` of the canonical scenario streams, recorded from
#: the per-object generators at the commit before streams went columnar.
CANONICAL_DIGESTS = {
    "cluster_scaling": (10000, 3955275802, 50, 656667760),
    "diurnal": (350, 3107028416, 20, 4271344370),
    "qed": (600, 105586796, 28, 1549692310),
    "fault": (300, 2072240042, 20, 4271344370),
    "replication": (300, 3337052978, 20, 4271344370),
}


class TestIdentitiesDidNotMove:
    def test_canonical_scenario_digests(self):
        streams = {
            "cluster_scaling": ablations._cyclic_poisson_stream(
                10_000, 50, 0.01, 7
            ),
            "diurnal": ablations.diurnal_scenario(0.05, horizon_s=240.0)[2],
            "qed": ablations.qed_ablation_stream(0.05, arrivals=600),
            "fault": ablations.fault_ablation_stream(0.05, arrivals=300),
            "replication": ablations.fault_ablation_stream(
                0.01, arrivals=300
            ),
        }
        for name, stream in streams.items():
            assert isinstance(stream, ArrivalStream), name
            digest = arrivals_digest(stream)
            assert tuple(digest.values()) == CANONICAL_DIGESTS[name], name
            assert arrivals_digest(list(stream)) == digest, name

    @pytest.mark.parametrize(
        "name", ["fleet_vectorized", "fleet_featured", "fleet_traced"]
    )
    def test_benchmark_reference_run_ids(self, name, tmp_path):
        """The three fleet run ids ``benchmarks/e2e/reference.json``
        pins, from the harness's own workload definitions."""
        spec = importlib.util.spec_from_file_location(
            "e2e_workloads", E2E / "workloads.py"
        )
        e2e = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(e2e)
        reference = json.loads((E2E / "reference.json").read_text())
        assert reference["sizes"] == e2e.FULL_SIZES

        class NoSpans:
            def span(self, _name):
                import contextlib
                return contextlib.nullcontext()

        fleet = e2e.make(name, reference["seed"], False, tmp_path)
        fleet.setup(NoSpans())
        sim, stream = fleet.sim, fleet.stream()
        assert isinstance(stream, ArrivalStream)
        fingerprint = config_fingerprint(
            [node.spec for node in sim.nodes], sim.router,
            master_queue=sim.master_queue, faults=sim.faults,
            retry=sim.retry, arrivals=stream,
            workload_class=sim.db.workload_class,
            scale_factor=sim.db.scale_factor, placement=sim.placement,
        )
        want = reference["workloads"][name]
        assert run_id_for(fingerprint) == want["run_id"]
        assert len(stream) == want["arrivals"]
