#!/usr/bin/env bash
# CI entry point, tiered so the workflow can fan stages out:
#
#   scripts/ci.sh                  # everything (lint -> tests -> perf -> cluster -> obs)
#   scripts/ci.sh --stage lint     # compile + pyflakes + mypy + repro lint
#   scripts/ci.sh --stage tests    # tier-1 pytest suite
#   scripts/ci.sh --stage perf     # event-core identity smoke bench
#   scripts/ci.sh --stage cluster  # diurnal + qed + fault smoke benches
#                                  # + a trace store shared by two runs
#   scripts/ci.sh --stage replication  # placement + re-replication smoke
#   scripts/ci.sh --stage obs      # traced cluster smoke + trace schema
#                                  # + metrics export sanity
#
# The benches run at a tiny scale factor and enforce, on write, the
# rows of src/repro/measurement/gates.py they record: <= 1e-9
# identities, savings and conservation flags, all simulated (they also
# refresh the smoke copy of BENCH_perf.json; commit the real artifact
# only from a full-size run).  Host time is not judged here: that is
# benchmarks/e2e/compare.py over ten alternating run.py --out pairs.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="all"
while [ $# -gt 0 ]; do
    case "$1" in
        --stage) STAGE="$2"; shift 2 ;;
        *) echo "usage: scripts/ci.sh [--stage lint|tests|perf|cluster|replication|obs|all]" >&2
           exit 2 ;;
    esac
done

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Run one bench command at the CI smoke sizes (each overridable from
# the caller's environment).  Scoped to the command rather than
# exported: the tier-1 suite pins the full-size canonical scenarios.
smoke() {
    env REPRO_BENCH_SF="${REPRO_BENCH_SF:-0.01}" \
        REPRO_BENCH_SCALING_NODES="${REPRO_BENCH_SCALING_NODES:-32}" \
        REPRO_BENCH_SCALING_COMPARE_ARRIVALS="${REPRO_BENCH_SCALING_COMPARE_ARRIVALS:-20000}" \
        REPRO_BENCH_DIURNAL_HORIZON="${REPRO_BENCH_DIURNAL_HORIZON:-120}" \
        REPRO_BENCH_QED_ARRIVALS="${REPRO_BENCH_QED_ARRIVALS:-300}" \
        REPRO_BENCH_FAULT_ARRIVALS="${REPRO_BENCH_FAULT_ARRIVALS:-200}" \
        REPRO_BENCH_REPLICATION_ARRIVALS="${REPRO_BENCH_REPLICATION_ARRIVALS:-200}" \
        "$@"
}

run_lint() {
    echo "== lint (compile + pyflakes + mypy + repro analysis) =="
    python -m compileall -q src tests benchmarks scripts examples

    # pyflakes and mypy ride in requirements-ci.txt, so under CI they
    # are mandatory; locally they soft-skip when not installed.
    if python -c "import pyflakes" 2>/dev/null; then
        python -m pyflakes src tests benchmarks scripts examples
    elif [ -n "${CI:-}" ]; then
        echo "pyflakes is required under CI (requirements-ci.txt)" >&2
        exit 1
    else
        echo "pyflakes not installed; skipping (mandatory under CI)"
    fi

    if python -c "import mypy" 2>/dev/null; then
        python -m mypy --config-file mypy.ini
    elif [ -n "${CI:-}" ]; then
        echo "mypy is required under CI (requirements-ci.txt)" >&2
        exit 1
    else
        echo "mypy not installed; skipping (mandatory under CI)"
    fi

    echo "== analysis (repro lint: determinism/obs/lock invariants) =="
    local lint_dir="${REPRO_CI_LINT_DIR:-${TMPDIR:-/tmp}/repro-ci-lint}"
    mkdir -p "$lint_dir"
    python -m repro lint --format json > "$lint_dir/repro-lint.json" \
        || { cat "$lint_dir/repro-lint.json"; exit 1; }
    python -m repro lint
}

run_tests() {
    echo "== tier-1 test suite =="
    python -m pytest -x -q
}

run_perf() {
    echo "== event core vs loop scheduler smoke bench (SF ${REPRO_BENCH_SF:-0.01}) =="
    smoke python -m pytest benchmarks/bench_cluster_scaling.py -x -q
}

run_cluster() {
    echo "== diurnal ablation smoke bench =="
    smoke python -m pytest benchmarks/bench_ablation_diurnal.py -x -q
    echo "== qed ablation smoke bench =="
    smoke python -m pytest benchmarks/bench_ablation_qed.py -x -q
    echo "== fault recovery smoke bench =="
    smoke python -m pytest benchmarks/bench_fault_recovery.py -x -q
    echo "== trace store shared by two cluster processes =="
    # The store exists to be read by a later process: the second run
    # must find every compiled trace on disk and report the same run.
    local store_dir
    store_dir="$(mktemp -d "${TMPDIR:-/tmp}/repro-store.XXXXXX")"
    for run in first second; do
        python -m repro cluster --sf 0.002 --nodes 4 --arrivals 60 \
            --distinct 8 --policy least --trace-cache "$store_dir" \
            | grep -E "run id|wall energy" > "$store_dir/$run.txt"
    done
    test -s "$store_dir/first.txt"
    diff "$store_dir/first.txt" "$store_dir/second.txt"
    rm -rf "$store_dir"
}

run_replication() {
    echo "== replication smoke bench =="
    smoke python -m pytest benchmarks/bench_replication.py -x -q
    echo "== placement-routed cluster smoke run =="
    python -m repro cluster --sf 0.002 --nodes 4 --arrivals 60 \
        --distinct 8 --policy least --shards 4 --replicas 2 \
        --faults examples/fault_plan.json --retry-max 4 \
        --retry-backoff 0.05 --sla 1.0
}

run_obs() {
    local obs_dir trace metrics keep_dir
    # REPRO_CI_OBS_DIR persists the trace/metrics exports (the CI
    # workflow uploads them as artifacts); unset, a scratch dir is
    # used and removed.
    if [ -n "${REPRO_CI_OBS_DIR:-}" ]; then
        obs_dir="$REPRO_CI_OBS_DIR"
        mkdir -p "$obs_dir"
        keep_dir=1
    else
        obs_dir="$(mktemp -d "${TMPDIR:-/tmp}/repro-obs.XXXXXX")"
        keep_dir=0
    fi
    trace="$obs_dir/trace.json"
    metrics="$obs_dir/metrics.json"
    echo "== traced cluster smoke run =="
    python -m repro cluster --sf 0.002 --nodes 4 --arrivals 60 \
        --distinct 8 --policy dynamic --sla 1.0 \
        --faults examples/fault_plan.json \
        --trace "$trace" --metrics "$metrics" --window 1
    echo "== trace schema + energy reconciliation =="
    python -m repro obs report "$trace"
    echo "== metrics export sanity =="
    python - "$metrics" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["format"] == "repro-obs-metrics", doc.get("format")
assert doc["samples"], "no metric samples recorded"
assert doc["counters"].get("arrivals") == 60.0, doc["counters"]
ts = [s["t_s"] for s in doc["samples"]]
assert ts == sorted(ts), "samples out of order"
print(f"metrics OK: {len(doc['samples'])} samples, "
      f"counters {sorted(doc['counters'])}")
EOF
    if [ "$keep_dir" = 0 ]; then
        rm -rf "$obs_dir"
    fi
}

case "$STAGE" in
    lint)    run_lint ;;
    tests)   run_tests ;;
    perf)    run_perf ;;
    cluster) run_cluster ;;
    replication) run_replication ;;
    obs)     run_obs ;;
    all)     run_lint; run_tests; run_perf; run_cluster;
             run_replication; run_obs ;;
    *) echo "unknown stage: $STAGE" >&2; exit 2 ;;
esac

echo "CI OK ($STAGE)"
