"""The gate table: every perf/energy gate the repo enforces, stated once.

One :class:`Gate` row per gated key of ``BENCH_perf.json``.  Everything
that used to restate a gate derives from :data:`GATES` instead:

* the bench files -- ``benchmarks/conftest.py``'s artifact writer
  asserts every row whose key a bench just wrote;
* ``scripts/perf_report.py`` -- the live exit code and ``--check`` both
  iterate the ``check`` rows through :func:`verdicts`;
* ``scripts/check_bench_trend.py`` -- a row with ``stages`` is
  trend-gated: its bound is the absolute floor, ``config`` names the
  fields that must match for a best-on-record comparison, and
  ``--keys`` accepts a stage or section name (:func:`trend_keys`);
* ``scripts/ci.sh`` -- each stage passes its own name to ``--keys``;
* :class:`repro.measurement.perf.Ablation` -- ``to_dict()`` emits the
  derived flags of its section *from these rows*: a leaf named
  ``<a>_beats_<b>`` is ``beats(a, b, strict=row.strict)``, a leaf named
  ``<a>_vs_<b>_saving`` is ``saving(a, b)``, any other leaf is either
  supplied by the scenario or the conjunction of the per-mode flag of
  the same name.

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
    #: Enforced by ``perf_report.py`` (live and ``--check``).  Rows that
    #: are only trend-gated (the warm-cache speedup, the savings behind
    #: each ``*_beats_*`` flag) turn this off.
    check: bool = True
    #: Field names, relative to the key's section, that must match
    #: between two artifacts for a trend comparison to mean anything.
    config: tuple[str, ...] = ()
    #: ``ci.sh`` stages whose smoke bench measures the key and whose
    #: trend gate holds it to the best on record; empty = not
    #: trend-gated.
    stages: tuple[str, ...] = ()

    @property
    def section(self) -> str:
        return self.key.rpartition(".")[0]

    @property
    def leaf(self) -> str:
        return self.key.rpartition(".")[2]

    @property
    def config_fields(self) -> tuple[str, ...]:
        prefix = f"{self.section}." if self.section else ""
        return tuple(prefix + name for name in self.config)

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


_FLEET = ("arrivals", "nodes", "scale_factor")

GATES: tuple[Gate, ...] = (
    # Execute-once/replay-many sweep (bench_perf_pipeline.py).
    Gate("speedup_cold", "min", 5.0),
    Gate("speedup_cached", "min", 5.0, check=False, stages=("perf",),
         config=("scale_factor", "num_queries", "repeats")),
    Gate("max_rel_diff_cold", "max", 1e-9),
    # Batched playback and the vectorized event core
    # (bench_cluster_scaling.py).
    Gate("cluster_scaling.speedup", "min", 5.0,
         stages=("cluster", "obs"), config=_FLEET),
    Gate("cluster_scaling.max_rel_diff", "max", 1e-9),
    Gate("cluster_scaling.sched_speedup", "min", 5.0,
         stages=("perf", "cluster"),
         config=("sched_nodes", "sched_arrivals", "scale_factor")),
    Gate("cluster_scaling.sched_max_rel_diff", "max", 1e-9),
    Gate("cluster_scaling.sched_dispatch_match", "true"),
    # Diurnal policies on the heterogeneous fleet.
    Gate("diurnal.hetero_speedup", "min", 5.0, stages=("cluster",),
         config=("arrivals", "horizon_s", "scale_factor")),
    Gate("diurnal.hetero_max_rel_diff", "max", 1e-9),
    Gate("diurnal.dynamic_beats_spread", "true", strict=True),
    # QED placement: master <= node <= off on energy.
    Gate("qed.master_beats_node", "true", strict=True),
    Gate("qed.node_beats_off", "true", strict=True),
    Gate("qed.master_vs_node_saving", "min", 0.0, strict=True,
         check=False, stages=("cluster",), config=(*_FLEET, "threshold")),
    Gate("qed.node_vs_off_saving", "min", 0.0, strict=True,
         check=False, stages=("cluster",), config=(*_FLEET, "threshold")),
    # Fault recovery: the win survives crashes, nothing is lost.
    Gate("faults.consolidate_beats_spread", "true", strict=True),
    Gate("faults.consolidate_vs_spread_saving", "min", 0.0, strict=True,
         check=False, stages=("cluster",), config=_FLEET),
    Gate("faults.conserved", "true"),
    Gate("faults.faults_active", "true"),
    # Replication: quorum-aware consolidation spends *no more* than
    # spread while copies are in flight -- the one non-strict ordering.
    Gate("replication.consolidate_beats_spread", "true", strict=False),
    Gate("replication.consolidate_vs_spread_saving", "min", 0.0,
         strict=False, check=False, stages=("replication",),
         config=(*_FLEET, "shards", "replicas")),
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


def row(key: str) -> Gate:
    for gate in GATES:
        if gate.key == key:
            return gate
    raise KeyError(f"no gate-table row for {key!r}")


def section_rows(section: str) -> list[Gate]:
    return [gate for gate in GATES if gate.section == section]


def trend_keys(names=()) -> list[str]:
    """The trend-gated keys ``names`` stand for, in table order per
    name: a key names itself, a ``ci.sh`` stage (``perf``, ``cluster``,
    ...) or artifact section (``qed``, ``faults``, ...) its trend-gated
    rows; no names means every trend-gated row."""
    rows = [gate for gate in GATES if gate.stages]
    if not names:
        return [gate.key for gate in rows]
    keys: list[str] = []
    for name in names:
        found = [gate.key for gate in rows
                 if name in (gate.key, gate.section, *gate.stages)]
        if not found:
            raise KeyError(f"{name!r} names no trend-gated key, stage "
                           "or section of the gate table")
        keys += [key for key in found if key not in keys]
    return keys


def verdicts(record: dict, rows) -> list[tuple[Gate, object, bool]]:
    """``(gate, recorded value, passed)`` per row; a key the record
    does not hold fails with value None."""
    out = []
    for gate in rows:
        value = dig(record, gate.key)
        out.append((gate, value, value is not None and gate.passes(value)))
    return out
