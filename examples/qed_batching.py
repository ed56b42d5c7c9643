"""Scenario: QED admission control on an arriving query stream.

Simulates the paper's Section 4 deployment: selection queries arrive at
a master node's queue; a batch policy (threshold + timeout) dispatches
them; each dispatched batch is merged into one disjunctive query, run,
and split back per query.  Prints the Figure-6 style tradeoff for the
policy, per-position response degradation, and the analytical model's
SLA guidance.

    python examples/qed_batching.py [scale_factor]
"""

import sys

import numpy as np

import repro


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02

    db = repro.tpch_database(
        scale_factor, repro.mysql_profile(), tables=["lineitem"]
    )
    runner = repro.WorkloadRunner(db, repro.default_system())
    executor = repro.QedExecutor(runner)

    # 1. An arriving stream drains through the admission queue ----------
    policy = repro.BatchPolicy(threshold=40, max_wait_s=120.0)
    queue = repro.QueryQueue(policy)
    rng = np.random.default_rng(7)
    quantities = rng.permutation(np.arange(1, 51))[:45]
    now = 0.0
    dispatched = []
    for i, quantity in enumerate(quantities):
        now += float(rng.exponential(2.0))  # ~2 s mean inter-arrival
        batch = queue.submit(repro.selection_query(int(quantity)), now, i)
        if batch is not None:
            dispatched.append(batch)
    tail = queue.flush(now + policy.max_wait_s)
    if tail is not None:
        dispatched.append(tail)

    print(f"arrivals: {len(quantities)} queries over {now:.0f}s "
          f"-> {len(dispatched)} batches "
          f"({[b.size for b in dispatched]})")
    waits = [q.wait_at(b.dispatch_s)
             for b in dispatched for q in b.queries]
    print(f"queue wait (excluded from response accounting): "
          f"mean {sum(waits) / len(waits):.1f}s, max {max(waits):.1f}s\n")

    # 2. Figure-6 style comparison for each dispatched batch -------------
    for batch in dispatched:
        comparison = executor.compare(batch.sqls)
        print(f"batch of {batch.size:2d}: "
              f"energy {comparison.energy_delta:+.1%}, "
              f"response {comparison.response_delta:+.1%}, "
              f"EDP {comparison.edp_delta:+.1%}")
        degradation = comparison.position_degradation()
        print(f"  response degradation: first query x{degradation[0]:.1f}"
              f", median x{degradation[len(degradation) // 2]:.2f}"
              f", last x{degradation[-1]:.2f}")

    # 3. Analytical SLA guidance -----------------------------------------
    model = repro.QedModel()
    print("\nanalytical model: largest batch meeting a first-query SLA")
    for sla_tq in (10.0, 20.0, 30.0, 40.0):
        n = model.max_batch_for_sla(sla_tq)
        print(f"  SLA {sla_tq:4.0f} x t_q  ->  batch <= {n}")


if __name__ == "__main__":
    main()
