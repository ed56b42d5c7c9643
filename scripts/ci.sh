#!/usr/bin/env bash
# CI entry point, tiered so the workflow can fan stages out:
#
#   scripts/ci.sh                  # everything (lint -> tests -> paper -> perf
#                                  # -> cluster -> replication -> obs)
#   scripts/ci.sh --stage lint     # compile + pyflakes + mypy + repro lint
#   scripts/ci.sh --stage tests    # tier-1 pytest suite
#   scripts/ci.sh --stage paper    # the paper's experiments end to end
#                                  # (repro experiments at SF 0.035)
#   scripts/ci.sh --stage perf     # event-core identity smoke bench
#                                  # + BENCH_perf.json regenerates at
#                                  # SF 0.05 (floats to 1e-9)
#                                  # + a 400k-arrival cluster run and
#                                  # an 8k-arrival master-QED/fault/
#                                  # placement run print their golden
#                                  # reports
#   scripts/ci.sh --stage cluster  # diurnal + qed + fault smoke benches
#                                  # + a trace store shared by two runs
#   scripts/ci.sh --stage replication  # placement + re-replication smoke
#                                  # + malformed fleet/placement exits
#   scripts/ci.sh --stage obs      # traced cluster smoke in both trace
#                                  # formats + loop == vectorized engine
#                                  # through the CLI + trace schema +
#                                  # a traced master-QED/fault/dynamic
#                                  # run's report + metrics export
#                                  # sanity + truncated-trace exit
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
        *) echo "usage: scripts/ci.sh [--stage lint|tests|paper|perf|cluster|replication|obs|all]" >&2
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

run_paper() {
    # Every paper data point at the smallest scale factor whose
    # tolerances hold (see benchmarks/e2e/workloads.py): the command
    # exits non-zero when any point is out of tolerance.
    echo "== the paper's experiments end to end (SF 0.035) =="
    local out
    out="$(mktemp "${TMPDIR:-/tmp}/repro-paper.XXXXXX")"
    python -m repro experiments --sf 0.035 | tee "$out"
    grep -q "^all experiments within tolerance$" "$out"
    rm -f "$out"
}

run_perf() {
    echo "== event core vs loop scheduler smoke bench (SF ${REPRO_BENCH_SF:-0.01}) =="
    smoke python -m pytest benchmarks/bench_cluster_scaling.py -x -q
    echo "== BENCH_perf.json regenerates (SF 0.05, floats to 1e-9) =="
    local record status=0
    record="$(mktemp "${TMPDIR:-/tmp}/BENCH_perf.XXXXXX")"
    python scripts/perf_report.py 0.05 "$record" \
        --against BENCH_perf.json || status=$?
    rm -f "$record"
    [ "$status" = 0 ] || return "$status"
    echo "== 400k arrivals x 100 nodes, cold: the golden report =="
    # Four SCHEDULE_CHUNK blocks of the peak-power sweep: the run id,
    # every node's energy, the peak model, the percentiles and every
    # phase row must print exactly as pinned.
    python -m repro cluster --sf 0.05 --nodes 100 --arrivals 400000 \
        --distinct 50 --mean-interarrival 0.01 --seed 0 --window 30 \
        --sla 7.5 --policy spread \
        | diff tests/cluster/golden/fleet_vectorized_cluster.txt -
    echo "== 8k arrivals x 16 nodes, every loop feature, cold: the golden report =="
    # Master QED, dynamic consolidation, a 4x2 placement and an ~800 s
    # fault plan: every decision of the per-arrival loop shows in the
    # run id, the per-node energies, the QED and fault lines and the
    # phase rows, which must print exactly as pinned.
    python -m repro cluster --sf 0.05 --nodes 16 --arrivals 8000 \
        --distinct 20 --mean-interarrival 0.1 --seed 0 --window 30 \
        --sla 7.5 --policy dynamic --qed master --qed-threshold 16 \
        --qed-max-wait 2.0 --qed-placement consolidate \
        --faults tests/cluster/golden/featured_fault_plan.json \
        --retry-max 4 --retry-backoff 0.25 --shards 4 --replicas 2 \
        | diff tests/cluster/golden/fleet_featured_cluster.txt -
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
    echo "== a malformed --fleet / --placement file is a named error (exit 2) =="
    local bad_dir status
    bad_dir="$(mktemp -d "${TMPDIR:-/tmp}/repro-inputs.XXXXXX")"
    echo '{"groups": [{"count": 3.7}]}' > "$bad_dir/fleet.json"
    echo '{"tables": [{"table": "lineitem", "column": "l_quantity",
      "shards": "two", "replicas": 1, "replica_map": []}]}' \
        > "$bad_dir/placement.json"
    for kind in fleet placement; do
        status=0
        python -m repro cluster --sf 0.002 --nodes 4 --arrivals 5 \
            "--$kind" "$bad_dir/$kind.json" 2> "$bad_dir/$kind.err" \
            || status=$?
        cat "$bad_dir/$kind.err"
        test "$status" = 2
        grep -q "$kind $bad_dir/$kind.json: .*'\(count\|shards\)' must be" \
            "$bad_dir/$kind.err"
    done
    rm -rf "$bad_dir"
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
    echo "== traced cluster smoke run (Chrome JSON, then JSONL) =="
    for out in "$trace" "$obs_dir/trace.jsonl"; do
        python -m repro cluster --sf 0.002 --nodes 4 --arrivals 60 \
            --distinct 8 --policy dynamic --sla 1.0 \
            --faults examples/fault_plan.json \
            --trace "$out" --metrics "$metrics" --window 1 \
            | tee "$out.run.txt"
    done
    echo "== same run id in both exports =="
    diff <(grep "run id" "$trace.run.txt") \
        <(grep "run id" "$obs_dir/trace.jsonl.run.txt")
    echo "== loop engine (traced) == vectorized engine (untraced) =="
    # Hash-split pins templates to nodes, so the vectorized sequencer
    # sees uneven per-node groups; spread sees even ones; least-loaded
    # chains each choice on the last (its chunk form is an argmin
    # recurrence, its loop form the shared node-choice walk).  A
    # generated 4x2 placement puts every policy through its
    # eligibility mask on the vectorized side.
    local policy run
    for policy in spread hash least; do
        run="--sf 0.002 --nodes 4 --arrivals 60 --distinct 8"
        run="$run --policy $policy --sla 1.0 --window 1"
        run="$run --shards 4 --replicas 2"
        # shellcheck disable=SC2086
        python -m repro cluster $run > "$obs_dir/$policy.vectorized.txt"
        # shellcheck disable=SC2086
        python -m repro cluster $run --trace "$obs_dir/$policy.json" \
            > "$obs_dir/$policy.loop.txt"
        grep -q "engine=vectorized$" "$obs_dir/$policy.vectorized.txt"
        grep -q "engine=loop " "$obs_dir/$policy.loop.txt"
        # The run id, the energy and every phase-report row.
        diff <(grep -E "run id|wall energy|^ +\[" \
                   "$obs_dir/$policy.vectorized.txt") \
            <(grep -E "run id|wall energy|^ +\[" "$obs_dir/$policy.loop.txt")
        grep -E "run id|wall energy" "$obs_dir/$policy.loop.txt"
    done
    echo "== trace schema + energy reconciliation, both formats =="
    for out in "$trace" "$obs_dir/trace.jsonl"; do
        python -m repro obs report "$out" | tee "$out.report.txt"
        sed -n '/^  phase /,/^$/p' "$out.report.txt" > "$out.spans.txt"
    done
    test -s "$trace.spans.txt"
    diff "$trace.spans.txt" "$obs_dir/trace.jsonl.spans.txt"
    echo "== master QED + faults + dynamic consolidation, traced =="
    # Queue-wait, dispatch, retry and terminal spans all link to their
    # query's arrival; the report validates that and the energy.
    local featured="$obs_dir/featured.json"
    python -m repro cluster --sf 0.002 --nodes 4 --arrivals 60 \
        --distinct 8 --policy dynamic --qed master --qed-threshold 4 \
        --qed-max-wait 0.5 --qed-placement consolidate \
        --faults examples/fault_plan.json --trace "$featured" \
        | tee "$featured.run.txt"
    python -m repro obs report "$featured" | tee "$featured.report.txt"
    grep -q "^  reconciliation : " "$featured.report.txt"
    grep -q "^trace valid$" "$featured.report.txt"
    echo "== a truncated trace is a named error (exit 2) =="
    { head -n 1 "$obs_dir/trace.jsonl"
      sed -n 2p "$obs_dir/trace.jsonl" | head -c 40
      echo; } > "$obs_dir/truncated.jsonl"
    local status=0
    python -m repro obs report "$obs_dir/truncated.jsonl" \
        2> "$obs_dir/truncated.err" || status=$?
    cat "$obs_dir/truncated.err"
    test "$status" = 2
    grep -q "truncated.jsonl: line 2:" "$obs_dir/truncated.err"
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
    paper)   run_paper ;;
    perf)    run_perf ;;
    cluster) run_cluster ;;
    replication) run_replication ;;
    obs)     run_obs ;;
    all)     run_lint; run_tests; run_paper; run_perf; run_cluster;
             run_replication; run_obs ;;
    *) echo "unknown stage: $STAGE" >&2; exit 2 ;;
esac

echo "CI OK ($STAGE)"
