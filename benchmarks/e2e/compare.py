"""Compare sets of benchmark runs by the choosing-metrics rule.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json [CHANGE2.json ...]

Each file holds the runs ``run.py --out FILE`` appended (run the parent
and the change alternately, ten times each, before claiming anything).
Per (workload, end-to-end metric) this prints both medians and
quartiles, how many pairs the change won, and one verdict:

improved    the change won >= 9/10 of >= 10 pairs (ties count for
            neither) and the medians differ by more than the parent's
            own interquartile spread
regressed   the change's median is worse than the parent's by more than
            the metric's bound in BENCHMARK.json
unresolved  not regressed, but a side's spread is wider than the bound
            and the change's runs do not all read better than the parent's
unchanged   none of the above

Counts (per-layer metrics with unit ``count`` or ``B``, all ``calls.*``)
must repeat exactly at a given seed: ``identical`` or ``differs``.
Exit status is 1 when anything regressed or differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
EXACT_UNITS = ("count", "B")


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); a single value is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # cost = sign * value
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    if worse_by > bound:
        verdict = "regressed"
    elif (
        len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        verdict = "improved"
    elif (
        max(p_q3 - p_q1, c_q3 - c_q1) > bound * abs(p_med)
        and not max(sign * c for c in change) < min(sign * p for p in parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict, "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3), "wins": wins, "pairs": len(pairs),
        "worse_by": worse_by, "bound": bound,
    }


def values_of(runs: list[dict], workload: str, metric: str) -> list:
    return [
        run["workloads"][workload]["metrics"][metric]["value"]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]


def compare_runs(parent: list[dict], change: list[dict],
                 spec: dict) -> list[dict]:
    """One verdict per (workload, metric) both sides measured."""
    verdicts = []
    same_seeds = (
        [r["seed"] for r in parent] == [r["seed"] for r in change]
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            p = values_of(parent, workload, metric["name"])
            c = values_of(change, workload, metric["name"])
            if p and c:
                verdicts.append({
                    "workload": workload, "metric": metric["name"],
                    "unit": metric["unit"],
                    **judge(p, c, metric["better"], metric["bound"]),
                })
        if not same_seeds:
            continue  # counts depend on the seed's arrival stream
        for metric in spec["per_layer"]:
            exact = (metric["unit"] in EXACT_UNITS
                     or metric["name"].startswith("calls."))
            p = values_of(parent, workload, metric["name"])
            c = values_of(change, workload, metric["name"])
            if exact and p and c:
                verdicts.append({
                    "workload": workload, "metric": metric["name"],
                    "unit": metric["unit"],
                    "verdict": "identical" if p == c else "differs",
                    "parent": p, "change": c,
                })
    return verdicts


def print_verdicts(verdicts: list[dict]) -> None:
    identical = 0
    for v in verdicts:
        where = f"{v['workload']:17s} {v['metric']:34s}"
        if v["verdict"] == "identical":
            identical += 1
        elif v["verdict"] == "differs":
            print(f"{where} differs     parent {v['parent']} "
                  f"change {v['change']}")
        else:
            (pm, p1, p3), (cm, c1, c3) = v["parent"], v["change"]
            print(f"{where} {v['verdict']:11s} "
                  f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}] "
                  f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {v['unit']}; "
                  f"won {v['wins']}/{v['pairs']} pairs, "
                  f"{v['worse_by']:+.1%} worse (bound {v['bound']:.0%})")
    print(f"{identical} counts identical")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    parent = json.loads(Path(argv[0]).read_text())["runs"]
    status = 0
    for path in argv[1:]:
        print(f"== {argv[0]} (parent) vs {path} (change) ==")
        verdicts = compare_runs(
            parent, json.loads(Path(path).read_text())["runs"], spec
        )
        print_verdicts(verdicts)
        if any(v["verdict"] in ("regressed", "differs") for v in verdicts):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
