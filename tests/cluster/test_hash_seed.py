"""The featured loop does the same work under every ``PYTHONHASHSEED``.

String hashing is randomized per process, so any walk over a set or a
string-keyed hash order makes the amount of work -- not only the
decisions -- depend on the seed.  A smoke-size run of the benchmark's
featured shape (dynamic consolidation under master QED, a 4x2
placement, the ~800 s fault plan, retries) runs in one subprocess per
seed with ``SimulatedNode.can_serve`` wrapped in a counter: the count,
the run id and the wall energy must be identical across seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

FAULT_PLAN = Path(__file__).parent / "golden" / "featured_fault_plan.json"

SCRIPT = """
import json, sys
from repro import cluster as c
from repro.core.qed.policy import BatchPolicy
from repro.db.profiles import mysql_profile
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload
from repro.workloads.tpch.generator import tpch_database

calls = 0
can_serve = c.SimulatedNode.can_serve


def counted(self, now_s):
    global calls
    calls += 1
    return can_serve(self, now_s)


c.SimulatedNode.can_serve = counted
db = tpch_database(0.01, mysql_profile(), seed=0, tables=["lineitem"])
specs = c.uniform_fleet(16, wake_latency_s=30.0)
sim = c.ClusterSimulator(
    db, specs,
    c.DynamicConsolidateRouter(max_backlog_s=1.0, target_utilization=0.7,
                               hysteresis=0.3, min_awake=1),
    master_queue=c.MasterQueue(BatchPolicy(16, max_wait_s=2.0),
                               placement=c.ConsolidatePlacement()),
    faults=c.load_fault_plan(sys.argv[1]),
    retry=c.RetryPolicy(max_attempts=4, backoff_s=0.25),
    placement=c.generate_placement(specs, shards=4, replicas=2, quorum=1),
)
queries = selection_workload(20).queries
stream = poisson_arrivals([queries[i % 20] for i in range(1000)], 0.8,
                          seed=0)
m = sim.run(stream)
print(json.dumps({"can_serve": calls, "run_id": m.run_id,
                  "wall_joules": m.wall_joules.hex()}))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(FAULT_PLAN)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_work_and_outcome_do_not_depend_on_the_hash_seed():
    runs = [_run(seed) for seed in ("0", "2", "6")]
    assert runs[0]["can_serve"] > 0
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
