"""The gate table: every perf/energy gate the repo enforces, stated once.

One :class:`Gate` row per gated key of ``BENCH_perf.json``.  Everything
that used to restate a gate derives from :data:`GATES` instead:

* the bench files -- ``benchmarks/conftest.py``'s artifact writer
  asserts every row whose key a bench just wrote;
* ``scripts/perf_report.py`` -- the live exit code and ``--check`` both
  iterate every row through :func:`verdicts`;
* :class:`repro.measurement.perf.Ablation` -- ``to_dict()`` emits the
  derived flags of its section *from these rows*: a leaf named
  ``<a>_beats_<b>`` is ``beats(a, b, strict=row.strict)``, a leaf named
  ``<a>_vs_<b>_saving`` is ``saving(a, b)``, any other leaf is either
  supplied by the scenario or the conjunction of the per-mode flag of
  the same name.

Every row is something a re-run reproduces: a <= 1e-9 identity, a
saving in simulated joules, a conservation boolean -- or a loose >= 5x
floor on a host-time ratio, with no memory of past runs.  Host time
itself is judged in one place, ``benchmarks/e2e/compare.py``.

Adding a gate = one row here + (for a new section) one scenario
function in ``perf.py`` that writes the key.  Nothing else registers it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Gate:
    """One gated key of ``BENCH_perf.json`` and everything that is
    enforced about it."""

    #: Dotted key into the artifact (``section.leaf``, or a bare leaf
    #: for the top-level sweep record).
    key: str
    #: ``min`` / ``max`` compare against ``bound``; ``true`` needs a
    #: truthy value.
    kind: str
    bound: float | None = None
    #: The bound itself fails (``>`` / ``<``).  On a ``*_beats_*`` row:
    #: equal energy does not count as beating.
    strict: bool = False

    @property
    def section(self) -> str:
        return self.key.rpartition(".")[0]

    @property
    def leaf(self) -> str:
        return self.key.rpartition(".")[2]

    def passes(self, value) -> bool:
        if self.kind == "true":
            return bool(value)
        if self.kind == "min":
            return value > self.bound if self.strict else value >= self.bound
        return value < self.bound if self.strict else value <= self.bound

    def describe(self) -> str:
        if self.kind == "true":
            return "true"
        op = ">" if self.kind == "min" else "<"
        return f"{op}{'' if self.strict else '='} {self.bound:g}"


GATES: tuple[Gate, ...] = (
    # Execute-once/replay-many sweep (bench_perf_pipeline.py).
    Gate("speedup_cold", "min", 5.0),
    Gate("speedup_cached", "min", 5.0),
    Gate("max_rel_diff_cold", "max", 1e-9),
    # Batched playback and the vectorized event core
    # (bench_cluster_scaling.py).
    Gate("cluster_scaling.speedup", "min", 5.0),
    Gate("cluster_scaling.max_rel_diff", "max", 1e-9),
    Gate("cluster_scaling.sched_speedup", "min", 5.0),
    Gate("cluster_scaling.sched_max_rel_diff", "max", 1e-9),
    Gate("cluster_scaling.sched_dispatch_match", "true"),
    # Diurnal policies on the heterogeneous fleet.
    Gate("diurnal.hetero_speedup", "min", 5.0),
    Gate("diurnal.hetero_max_rel_diff", "max", 1e-9),
    Gate("diurnal.dynamic_beats_spread", "true", strict=True),
    # QED placement: master <= node <= off on energy.
    Gate("qed.master_beats_node", "true", strict=True),
    Gate("qed.node_beats_off", "true", strict=True),
    Gate("qed.master_vs_node_saving", "min", 0.0, strict=True),
    Gate("qed.node_vs_off_saving", "min", 0.0, strict=True),
    # Fault recovery: the win survives crashes, nothing is lost.
    Gate("faults.consolidate_beats_spread", "true", strict=True),
    Gate("faults.consolidate_vs_spread_saving", "min", 0.0, strict=True),
    Gate("faults.conserved", "true"),
    Gate("faults.faults_active", "true"),
    # Replication: quorum-aware consolidation spends *no more* than
    # spread while copies are in flight -- the one non-strict ordering.
    Gate("replication.consolidate_beats_spread", "true", strict=False),
    Gate("replication.consolidate_vs_spread_saving", "min", 0.0,
         strict=False),
    Gate("replication.conserved", "true"),
    Gate("replication.re_replicated", "true"),
    Gate("replication.restored", "true"),
)


def dig(record: dict, dotted: str):
    """Resolve ``a.b.c`` in nested dicts (None when absent)."""
    node = record
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def section_rows(section: str) -> list[Gate]:
    return [gate for gate in GATES if gate.section == section]


def verdicts(record: dict) -> list[tuple[Gate, object, bool]]:
    """``(gate, recorded value, passed)`` per row of :data:`GATES`; a
    key the record does not hold fails with value None."""
    out = []
    for gate in GATES:
        value = dig(record, gate.key)
        out.append((gate, value, value is not None and gate.passes(value)))
    return out
