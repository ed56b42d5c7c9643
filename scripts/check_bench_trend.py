"""Gate CI on performance trends recorded in ``BENCH_perf.json``.

    PYTHONPATH=src python scripts/check_bench_trend.py \
        [--fresh SMOKE.json] [--baseline BENCH_perf.json] \
        [--keys speedup_cached qed cluster ...] \
        [--max-regression 0.20] [--record]

Compares freshly measured speedups (the artifact the benchmark suite
just wrote) against the committed ``BENCH_perf.json``.  The keys, their
floors and the configuration fields that must match all come from the
trend-gated rows of ``repro.measurement.gates``; ``--keys`` takes gate
keys, artifact section names (``qed``) or ``ci.sh`` stage names
(``cluster``), and defaults to every trend-gated row:

* a key may not regress by more than ``--max-regression`` (20% by
  default) from the *best* value on record at the fresh run's
  *configuration* (scale factor, fleet size, arrival counts) -- the
  committed record or any ``history`` entry.  Gating against the last
  artifact alone lets a number slide a little per refresh forever
  (``speedup_cached`` went 53.7 -> 35.4 over four entries, each step
  inside the 20%);
* when no record matches (the CI smoke runs shrink the scenarios),
  only the row's absolute floor applies (every gated speedup must
  stay >= 5x; the ablations' energy savings must stay positive, or
  non-negative where the gate is "spends no more than"),
  because a smaller scenario legitimately amortizes less --
  a smoke run failing a full-size trend threshold would be noise,
  not signal.

``--record`` appends the fresh values to the baseline's ``history``
array (timestamp, git revision, every run id in the artifact, the
configuration, the gated keys and the 1M-arrival tier's absolute
walls), making the perf trajectory machine-readable and attributable;
``scripts/perf_report.py`` does the same on every full-size artifact
refresh.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.measurement import gates
from repro.measurement.gates import dig

ROOT = Path(__file__).resolve().parent.parent

#: Absolute host-time figures recorded with every history entry but not
#: gated: the vectorized-only 1M-arrival tier (lower is better, and
#: machine-dependent -- the history row is the before/after ledger).
RECORDED_KEYS = (
    "cluster_scaling.tier_schedule_wall_s",
    "cluster_scaling.tier_playback_wall_s",
    "cluster_scaling.tier_total_wall_s",
)


def fmt_value(key: str, value: float) -> str:
    """Savings print as percentages, speedups as multipliers."""
    if key.endswith("_saving"):
        return f"{value:.1%}"
    return f"{value:.1f}x"


def best_on_record(key: str, fresh: dict, baseline: dict) -> float | None:
    """The best (every gated key is higher-is-better) value of ``key``
    the baseline holds at ``fresh``'s configuration: its committed
    record or any ``history`` entry.  None when nothing matches.

    Entries written before the ``config`` block existed recorded only
    the scale factor; ``perf_report.py`` wrote them from full-size
    runs, so they count as being at the committed record's config.
    """
    want = {f: dig(fresh, f) for f in gates.row(key).config_fields}
    committed = all(dig(baseline, f) == v for f, v in want.items())
    values = [dig(baseline, key)] if committed else []
    for entry in baseline.get("history", ()):
        config = entry.get("config")
        if config is None:
            matches = committed and (
                entry.get("scale_factor") == fresh.get("scale_factor")
            )
        else:
            matches = all(config.get(f) == v for f, v in want.items())
        if matches:
            values.append(entry.get(key))
    return max((v for v in values if v is not None), default=None)


def git_revision() -> dict:
    """``git_sha`` / ``git_dirty`` of the working tree ({} outside git)."""
    try:
        sha, status = (
            subprocess.run(
                ["git", *argv], cwd=ROOT, check=True, text=True,
                capture_output=True,
            ).stdout.strip()
            for argv in (("rev-parse", "--short=12", "HEAD"),
                         ("status", "--porcelain"))
        )
    except (OSError, subprocess.CalledProcessError):
        return {}
    return {"git_sha": sha, "git_dirty": bool(status)}


def run_ids(record: dict, prefix: str = "") -> dict:
    """Every ``*run_id`` in the artifact, keyed by dotted path."""
    found: dict = {}
    for name, value in record.items():
        if isinstance(value, dict):
            found.update(run_ids(value, f"{prefix}{name}."))
        elif name.endswith("run_id") and isinstance(value, str):
            found[f"{prefix}{name}"] = value
    return found


def history_entry(record: dict, keys=None) -> dict:
    """One machine-readable trajectory point from an artifact: when,
    from which code, which exact runs (config-fingerprint run ids), at
    which configuration, and the gated (every trend-gated key unless
    ``keys`` narrows it) and recorded values."""
    keys = gates.trend_keys() if keys is None else keys
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale_factor": record.get("scale_factor"),
        **git_revision(),
        **run_ids(record),
        "config": {
            field: dig(record, field)
            for key in keys for field in gates.row(key).config_fields
        },
    }
    for key in (*keys, *RECORDED_KEYS):
        value = dig(record, key)
        if value is not None:
            entry[key] = value
    return entry


def append_history(baseline_path: Path, record: dict,
                   keys=None) -> None:
    """Append ``record``'s gated values to the baseline's history."""
    baseline = (
        json.loads(baseline_path.read_text())
        if baseline_path.exists() else {}
    )
    baseline.setdefault("history", []).append(
        history_entry(record, keys)
    )
    baseline_path.write_text(json.dumps(baseline, indent=2))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", type=Path,
                        default=Path("/tmp/BENCH_perf_smoke.json"),
                        help="freshly measured artifact")
    parser.add_argument("--baseline", type=Path,
                        default=Path("BENCH_perf.json"))
    parser.add_argument("--keys", nargs="+", default=[],
                        help="gate keys, section names or ci.sh stage "
                             "names (default: every trend-gated key)")
    parser.add_argument("--max-regression", type=float, default=0.20)
    parser.add_argument("--record", action="store_true",
                        help="append the fresh values to the baseline's "
                             "history array")
    args = parser.parse_args(argv)
    try:
        keys = gates.trend_keys(args.keys)
    except KeyError as exc:
        parser.error(exc.args[0])

    if not args.fresh.exists():
        print(f"error: fresh artifact {args.fresh} not found "
              "(run the benchmark suite first)", file=sys.stderr)
        return 2
    fresh = json.loads(args.fresh.read_text())
    baseline = (
        json.loads(args.baseline.read_text())
        if args.baseline.exists() else {}
    )

    failures = []
    for key in keys:
        gate = gates.row(key)
        value = dig(fresh, key)
        if value is None:
            failures.append(f"{key}: missing from fresh artifact")
            continue
        status = f"{key}: fresh {fmt_value(key, value)}"
        if not gate.passes(value):
            failures.append(
                f"{key}: {fmt_value(key, value)} is under the "
                f"{fmt_value(key, gate.bound)} floor "
                f"(needs {gate.describe()})"
            )
            continue
        best = best_on_record(key, fresh, baseline)
        if best is not None:
            threshold = (1.0 - args.max_regression) * best
            status += (f"  vs best on record {fmt_value(key, best)} "
                       f"(needs >= {fmt_value(key, threshold)})")
            if value < threshold:
                failures.append(
                    f"{key}: {fmt_value(key, value)} regressed > "
                    f"{args.max_regression:.0%} from the best on "
                    f"record, {fmt_value(key, best)}"
                )
        elif dig(baseline, key) is None:
            status += "  (no baseline; floor gate only)"
        else:
            status += (f"  (baseline {fmt_value(key, dig(baseline, key))}"
                       " at a different config; floor gate only)")
        print(status)

    if args.record:
        append_history(args.baseline, fresh, keys)
        print(f"recorded history entry in {args.baseline}")

    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("perf trend OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
