"""The ablation record and the gate table.

``ablation_pins.json`` is what the four per-scenario ablation classes
wrote at SF 0.005 before they became one :class:`Ablation` record
(host timings stripped); the rest pins that every consumer of a gate
-- the artifact check and the ablation's own derived flags -- reads the
one table, every row of it, and that the committed artifact holds
nothing but what a re-run reproduces.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cluster import ClusterSimulator, RoundRobinRouter, uniform_fleet
from repro.db.profiles import mysql_profile
from repro.measurement import ablations, gates
from repro.measurement.gates import Gate
from repro.workloads.tpch.generator import tpch_database

ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = ROOT / "BENCH_perf.json"
PINS = json.loads(
    (Path(__file__).parent / "ablation_pins.json").read_text()
)
RUNNERS = {
    "diurnal": ablations.run_diurnal_ablation,
    "qed": ablations.run_qed_ablation,
    "faults": ablations.run_fault_ablation,
    "replication": ablations.run_replication_ablation,
}


def _perf_report():
    spec = importlib.util.spec_from_file_location(
        "perf_report", ROOT / "scripts" / "perf_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def db():
    return tpch_database(0.005, mysql_profile(), seed=0,
                         tables=["lineitem"])


@pytest.fixture
def canonical_sizes():
    """The scenario sizes the pins were recorded at, per section: the
    canonical arrival counts and a one-cycle diurnal horizon."""
    return {
        "diurnal": {"horizon_s": 120.0},
        "qed": {"arrivals": ablations.QED_ARRIVALS},
        "faults": {"arrivals": ablations.FAULT_ARRIVALS},
        "replication": {"arrivals": ablations.FAULT_ARRIVALS},
    }


def _assert_matches(got, pinned, path):
    if isinstance(pinned, dict):
        assert isinstance(got, dict) and set(got) == set(pinned), path
        for key, value in pinned.items():
            _assert_matches(got[key], value, f"{path}.{key}")
    elif isinstance(pinned, float):
        assert got == pytest.approx(pinned, rel=0, abs=1e-9), path
    else:  # run ids, counts, booleans, None: exactly, type included
        assert got == pinned and type(got) is type(pinned), path


@pytest.mark.parametrize("section", sorted(RUNNERS))
def test_ablation_record_is_what_the_old_class_wrote(
    section, db, canonical_sizes,
):
    record = RUNNERS[section](
        db, scale_factor=0.005, **canonical_sizes[section]
    ).to_dict()
    _assert_matches(record, PINS[section], section)
    json.dumps(record)  # the artifact writer's only requirement


def test_record_keys_read_as_attributes(db, canonical_sizes):
    ablation = ablations.run_fault_ablation(
        db, scale_factor=0.005, **canonical_sizes["faults"]
    )
    assert ablation.arrivals == 300 and ablation.retry_max == 4
    assert ablation.conserved is True
    assert ablation.consolidate_vs_spread_saving == ablation.saving(
        "consolidate", "spread"
    )
    with pytest.raises(AttributeError):
        ablation.no_such_key


def _ablation(joules_a, joules_b, misses_a=0, misses_b=0):
    return ablations.Ablation(
        "qed", config={"arrivals": 100, "sla_budget": 0.01},
        modes={"a": {"wall_joules": joules_a, "sla_misses": misses_a},
               "b": {"wall_joules": joules_b, "sla_misses": misses_b}},
    )


@pytest.mark.parametrize("joules_a, joules_b, misses_a, misses_b, "
                         "strict, expected", [
    (90.0, 100.0, 0, 0, True, True),
    (90.0, 100.0, 1, 1, True, True),      # exactly on the budget
    (90.0, 100.0, 2, 0, True, False),     # winner over budget
    (90.0, 100.0, 0, 2, True, False),     # baseline over budget
    (90.0, 100.0, 2, 0, False, False),
    (100.0, 100.0, 0, 0, True, False),    # equal energy, strict
    (100.0, 100.0, 0, 0, False, True),    # equal energy, "no more than"
    (100.0, 100.0, 0, 2, False, False),
    (110.0, 100.0, 0, 0, False, False),
])
def test_beats_truth_table(joules_a, joules_b, misses_a, misses_b,
                           strict, expected):
    ablation = _ablation(joules_a, joules_b, misses_a, misses_b)
    assert ablation.beats("a", "b", strict=strict) is expected


def test_within_budget_and_missing_modes():
    ablation = _ablation(90.0, 100.0, misses_a=1, misses_b=2)
    assert ablation.within_budget("a") and not ablation.within_budget("b")
    assert ablation.saving("a", "b") == pytest.approx(0.1)
    for call in (lambda: ablation.within_budget("c"),
                 lambda: ablation.beats("a", "c"),
                 lambda: ablation.beats("c", "b", strict=False),
                 lambda: ablation.saving("c", "a")):
        with pytest.raises(KeyError, match="c"):
            call()


def test_derived_flags_take_their_strictness_from_the_table(monkeypatch):
    tie = _ablation(100.0, 100.0)
    rows = (Gate("qed.a_beats_b", "true", strict=True),
            Gate("qed.b_beats_a", "true", strict=False),
            Gate("qed.a_vs_b_saving", "min", 0.0))
    monkeypatch.setattr(gates, "GATES", rows)
    record = tie.to_dict()
    assert record["a_beats_b"] is False and record["b_beats_a"] is True
    assert record["a_vs_b_saving"] == 0.0


def test_a_beats_row_and_its_saving_row_agree_on_strictness():
    by_key = {gate.key: gate for gate in gates.GATES}
    pairs = 0
    for gate in gates.GATES:
        match = ablations._BEATS.fullmatch(gate.leaf)
        saving = match and by_key.get(
            f"{gate.section}.{match[1]}_vs_{match[2]}_saving"
        )
        if saving:
            pairs += 1
            assert saving.strict == gate.strict, gate.key
            assert (saving.kind, saving.bound) == ("min", 0.0)
    assert pairs == 4
    assert by_key["replication.consolidate_beats_spread"].strict is False


def test_every_gate_resolves_in_the_committed_artifact():
    record = json.loads(ARTIFACT.read_text())
    for gate, value, passed in gates.verdicts(record):
        assert value is not None, f"{gate.key} is not recorded"
        assert passed, f"{gate.key} = {value} violates {gate.describe()}"


def test_committed_artifact_passes_its_own_gates(capsys):
    assert _perf_report().main(["--check", "0.05", str(ARTIFACT)]) == 0
    assert "all recorded gates pass" in capsys.readouterr().out


def test_against_names_every_moved_value(tmp_path, capsys):
    """``--against``: run ids and counts exactly, floats to 1e-9, so
    last-bit drift passes and a behaviour change fails by key."""
    record = json.loads(ARTIFACT.read_text())
    policy = record["diurnal"]["policies"]["dynamic"]
    policy["edp"] *= 1 + 1e-15
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(record))
    check = ["--check", "0.05", str(drifted), "--against", str(ARTIFACT)]
    assert _perf_report().main(check) == 0
    policy["edp"] *= 1 + 1e-6
    policy["run_id"] = "000000000000"
    del record["qed"]
    drifted.write_text(json.dumps(record))
    assert _perf_report().main(check) == 1
    moved = [line.split()[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("MOVED")]
    assert moved == ["diurnal.policies.dynamic.edp",
                     "diurnal.policies.dynamic.run_id", "qed"]


def test_committed_artifact_holds_no_retired_ledger_keys():
    """No run history, no host timing and no speedup: wall time is
    judged by ``benchmarks/e2e/compare.py`` alone."""
    def keys(node):
        for key, value in node.items():
            yield key
            if isinstance(value, dict):
                yield from keys(value)

    retired = [
        key for key in keys(json.loads(ARTIFACT.read_text()))
        if key.startswith("tier_") or "traced" in key
        or key.endswith("_wall_s") or "speedup" in key or key in (
            "history", "tracing_overhead", "naive_reuse",
            "max_rel_diff_reuse",
        )
    ]
    assert retired == []


def test_check_gates_iterates_every_row(capsys):
    """One loop enforces the whole table: there is no row that some
    other script is responsible for."""
    record = json.loads(ARTIFACT.read_text())
    assert [gate for gate, _, _ in gates.verdicts(record)] == list(
        gates.GATES
    )
    assert _perf_report().check_gates(record) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == [
        gate.key for gate in gates.GATES
    ]
    assert _perf_report().check_gates({}) == 1
    assert capsys.readouterr().out.count("not recorded") == len(gates.GATES)


def test_the_gate_set():
    """16 rows, each with the bound the hand-written tables had: the
    two identities of the event core against the loop scheduler (energy
    <= 1e-9, dispatch equal), the four savings behind the orderings,
    the ten booleans -- and no host-time floor."""
    rows = {(g.key, g.kind, g.bound) for g in gates.GATES}
    assert len(rows) == len(gates.GATES) == 16
    assert {key for key, kind, _ in rows if kind == "true"} == {
        "cluster_scaling.sched_dispatch_match",
        "diurnal.dynamic_beats_spread",
        "qed.master_beats_node", "qed.node_beats_off",
        "faults.consolidate_beats_spread", "faults.conserved",
        "faults.faults_active",
        "replication.consolidate_beats_spread", "replication.conserved",
        "replication.re_replicated", "replication.restored",
    }
    assert {(g.key, g.bound, g.strict) for g in gates.GATES
            if g.kind == "min"} == {
        ("qed.master_vs_node_saving", 0.0, True),
        ("qed.node_vs_off_saving", 0.0, True),
        ("faults.consolidate_vs_spread_saving", 0.0, True),
        ("replication.consolidate_vs_spread_saving", 0.0, False),
    }
    assert {(key, bound) for key, kind, bound in rows
            if kind == "max"} == {
        ("cluster_scaling.sched_max_rel_diff", 1e-9),
    }


def test_one_new_row_reaches_every_consumer(monkeypatch, tmp_path, capsys):
    row = Gate("qed.master_vs_off_saving", "min", 0.0, strict=True)
    monkeypatch.setattr(gates, "GATES", (*gates.GATES, row))
    record = json.loads(ARTIFACT.read_text())
    ablation = ablations.Ablation(
        "qed", modes=record["qed"]["modes"],
        config={"arrivals": record["qed"]["arrivals"],
                "sla_budget": record["qed"]["sla_budget"]},
    )
    value = ablation.to_dict()["master_vs_off_saving"]
    assert value == ablation.saving("master", "off") > 0.0

    record["qed"]["master_vs_off_saving"] = value
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(record))
    assert _perf_report().main(["--check", "0.05", str(artifact)]) == 0
    assert "qed.master_vs_off_saving" in capsys.readouterr().out
    record["qed"]["master_vs_off_saving"] = 0.0
    artifact.write_text(json.dumps(record))
    assert _perf_report().main(["--check", "0.05", str(artifact)]) == 1


def test_gate_rows_are_well_formed():
    keys = [gate.key for gate in gates.GATES]
    assert len(keys) == len(set(keys))
    for gate in gates.GATES:
        assert gate.kind in ("min", "max", "true")
        assert (gate.bound is None) == (gate.kind == "true")


def test_conservation_reads_the_vectorized_engine(db):
    """A fault-free stream takes the columnar engine, whose derived
    ``responses`` view is never silently empty."""
    stream = ablations.fault_ablation_stream(0.005)
    sim = ClusterSimulator(db, uniform_fleet(4), RoundRobinRouter())
    assert sim.vectorized_ineligibility() is None
    m = sim.run(stream)
    assert len(m.responses) == m.served == len(stream)
    assert m.faults is None
    assert ablations.conserved(m, stream)
    assert not ablations.conserved(m, stream[:-1])
    assert not ablations.conserved(m, stream + stream[-1:])
