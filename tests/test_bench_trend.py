"""``scripts/check_bench_trend.py``: the gate compares against the best
value on record at a matching configuration, and history entries say
which code and which runs produced them."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_bench_trend.py"


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("check_bench_trend", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _artifact(speedup: float, scale_factor=0.05, history=()) -> dict:
    return {
        "scale_factor": scale_factor, "num_queries": 50, "repeats": 5,
        "speedup_cached": speedup,
        "cluster_scaling": {"run_id": "08a56e424412",
                            "tier_run_id": "a8a8f6140fb0",
                            "tier_schedule_wall_s": 1.4},
        "history": list(history),
    }


def _gate(trend, tmp_path, fresh: dict, baseline: dict, *extra) -> int:
    fresh_path, base_path = tmp_path / "fresh.json", tmp_path / "base.json"
    fresh_path.write_text(json.dumps(fresh))
    base_path.write_text(json.dumps(baseline))
    return trend.main(["--fresh", str(fresh_path), "--baseline",
                       str(base_path), "--keys", "speedup_cached", *extra])


class TestBestOfHistory:
    #: the committed ``BENCH_perf.json`` trajectory: each step is inside
    #: the 20% rule against its predecessor, the whole slide is -34%.
    DRIFT = [{"scale_factor": 0.05, "speedup_cached": v}
             for v in (49.4, 53.7, 38.7, 35.4)]

    def test_slow_drift_trips_the_gate(self, trend, tmp_path, capsys):
        baseline = _artifact(35.4, history=self.DRIFT)
        assert _gate(trend, tmp_path, _artifact(34.0), baseline) == 1
        assert "best on record, 53.7x" in capsys.readouterr().err
        assert _gate(trend, tmp_path, _artifact(43.0), baseline) == 0

    def test_other_configs_are_not_compared(self, trend, tmp_path, capsys):
        baseline = _artifact(35.4, history=self.DRIFT)
        smoke = _artifact(9.0, scale_factor=0.01)
        assert _gate(trend, tmp_path, smoke, baseline) == 0
        assert "different config; floor gate only" in capsys.readouterr().out
        assert _gate(trend, tmp_path, _artifact(4.0, 0.01), baseline) == 1

    def test_entries_with_a_config_block_match_on_it(self, trend):
        smoke_entry = {"scale_factor": 0.01, "speedup_cached": 80.0,
                       "config": {"scale_factor": 0.01, "num_queries": 50,
                                  "repeats": 5}}
        baseline = _artifact(35.4, history=[*self.DRIFT, smoke_entry])
        best = trend.best_on_record
        assert best("speedup_cached", _artifact(1.0), baseline) == 53.7
        assert best("speedup_cached", _artifact(1.0, 0.01), baseline) == 80.0
        assert best("speedup_cached", _artifact(1.0, 0.02), baseline) is None
        assert best("speedup_cached", _artifact(1.0), {}) is None


class TestHistoryEntries:
    def test_entry_is_attributable(self, trend):
        entry = trend.history_entry(_artifact(35.4))
        assert entry["cluster_scaling.run_id"] == "08a56e424412"
        assert entry["cluster_scaling.tier_run_id"] == "a8a8f6140fb0"
        assert entry["cluster_scaling.tier_schedule_wall_s"] == 1.4
        assert entry["config"]["num_queries"] == 50
        if "git_sha" in entry:  # absent only outside a git checkout
            assert len(entry["git_sha"]) == 12
            assert isinstance(entry["git_dirty"], bool)

    def test_record_appends_to_the_baseline(self, trend, tmp_path):
        assert _gate(trend, tmp_path, _artifact(36.0), _artifact(35.4),
                     "--record") == 0
        history = json.loads((tmp_path / "base.json").read_text())["history"]
        assert history[-1]["speedup_cached"] == 36.0
        assert history[-1]["config"]["scale_factor"] == 0.05
