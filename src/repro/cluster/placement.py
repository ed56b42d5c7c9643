"""Data placement: partitioned tables with k replicas across the fleet.

The seed cluster model assumed full replication -- any node could serve
any query.  This module drops that assumption.  A :class:`PlacementMap`
assigns each table hash- or range-partitioned shards with ``replicas``
copies spread over named nodes; the simulator consults it to restrict
routing to nodes that hold every shard a statement's predicates may
touch, consolidating routers consult it to keep a quorum of every shard
awake before sleeping a node, and the fault layer uses it to synthesize
re-replication copy traffic after a crash (see
:func:`replication_copy_trace`).

Shard resolution is *conservative*: a statement narrows to specific
shards only when its WHERE clause provably pins the partition column to
literal values (``col = lit``, ``col IN (...)``, and AND/OR
combinations thereof).  Anything the walker cannot prove -- range
predicates on a hash-partitioned column, unparseable SQL, expressions
over the column -- falls back to *all* shards of the table, which is
always correct (merely less local).
"""

from __future__ import annotations

import json
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass

from repro.cluster.faults import check_key, is_count, is_number
from repro.db.errors import DatabaseError
from repro.db.sql import ast
from repro.db.sql.parser import parse
from repro.hardware.trace import CompiledTrace, CpuWork, DiskAccess, Trace

__all__ = [
    "PlacementMap",
    "QuorumCounts",
    "TablePlacement",
    "generate_placement",
    "load_placement",
    "quorum_cover",
    "replication_copy_trace",
    "stable_hash",
]

PARTITION_KINDS = ("hash", "range")


def stable_hash(value: object) -> int:
    """Deterministic value hash (``PYTHONHASHSEED`` randomizes builtin
    ``hash`` for strings, which would make shard maps -- and therefore
    every simulated energy number -- unreproducible across runs)."""
    return zlib.crc32(repr(value).encode())


@dataclass(frozen=True)
class TablePlacement:
    """One table's shard layout: ``shards`` partitions of ``column``,
    each held by the ``replicas`` nodes named in ``replica_map``.

    ``kind="hash"`` maps a partition value to ``stable_hash(v) %
    shards``; ``kind="range"`` maps it by binary search over the
    ``shards - 1`` ascending ``bounds`` (shard ``i`` covers values in
    ``(bounds[i-1], bounds[i]]``-style half-open buckets via
    ``bisect_right``).  ``quorum`` is how many replicas of every shard
    a consolidating router must keep awake (1 = availability floor,
    ``replicas // 2 + 1`` = majority).
    """

    table: str
    column: str
    shards: int
    replicas: int
    replica_map: tuple[tuple[str, ...], ...]
    kind: str = "hash"
    bounds: tuple[float, ...] = ()
    quorum: int = 1

    def __post_init__(self) -> None:
        check_key("shards", self.shards, self.shards >= 1,
                  "a positive integer")
        check_key("replicas", self.replicas, self.replicas >= 1,
                  "a positive integer")
        check_key("kind", self.kind, self.kind in PARTITION_KINDS,
                  f"one of {list(PARTITION_KINDS)}")
        if self.kind == "range":
            if len(self.bounds) != self.shards - 1:
                raise ValueError(
                    "range partitioning needs shards - 1 bounds "
                    f"({self.shards - 1}), got {len(self.bounds)}"
                )
            if any(a >= b for a, b in zip(self.bounds, self.bounds[1:])):
                raise ValueError("range bounds must be strictly ascending")
        elif self.bounds:
            raise ValueError("hash partitioning takes no bounds")
        check_key("replica_map", self.replica_map,
                  len(self.replica_map) == self.shards,
                  f"{self.shards} per-shard node lists")
        for shard, holders in enumerate(self.replica_map):
            check_key(f"replica_map[{shard}]", holders,
                      len(holders) == self.replicas
                      and len(set(holders)) == len(holders),
                      f"{self.replicas} distinct node names")
        check_key("quorum", self.quorum, 1 <= self.quorum <= self.replicas,
                  f"an integer in [1, {self.replicas}]")

    def shard_of(self, value: object) -> int:
        """The shard holding partition-column value ``value``."""
        if self.kind == "range":
            return bisect_right(self.bounds, value)
        return stable_hash(value) % self.shards

    def to_dict(self) -> dict:
        out = {
            "table": self.table,
            "column": self.column,
            "kind": self.kind,
            "shards": self.shards,
            "replicas": self.replicas,
            "quorum": self.quorum,
            "replica_map": [list(names) for names in self.replica_map],
        }
        if self.kind == "range":
            out["bounds"] = list(self.bounds)
        return out

    _KNOWN_KEYS = frozenset(
        ("table", "column", "kind", "shards", "replicas", "quorum",
         "replica_map", "bounds")
    )

    @classmethod
    def from_dict(cls, doc: dict) -> "TablePlacement":
        """One table's layout from its plan entry, type-checked key by
        key: a malformed entry is a ``ValueError`` naming the key, the
        offending value and what is allowed."""
        if not isinstance(doc, dict):
            raise ValueError(f"expected an object, got {doc!r}")
        unknown = set(doc) - cls._KNOWN_KEYS
        if unknown:
            raise ValueError(
                f"unknown keys {sorted(unknown)}; "
                f"known: {sorted(cls._KNOWN_KEYS)}"
            )
        for required in ("table", "column", "shards", "replicas",
                         "replica_map"):
            if required not in doc:
                raise ValueError(f"missing key {required!r}")
        table, column = doc["table"], doc["column"]
        replica_map = doc["replica_map"]
        bounds = doc.get("bounds", [])
        check_key("table", table, isinstance(table, str), "a string")
        check_key("column", column, isinstance(column, str), "a string")
        for key in ("shards", "replicas", "quorum"):
            if key in doc:
                check_key(key, doc[key], is_count(doc[key]),
                          "a positive integer")
        check_key("replica_map", replica_map,
                  isinstance(replica_map, list) and all(
                      isinstance(names, list)
                      and all(isinstance(n, str) for n in names)
                      for names in replica_map
                  ), "a list of per-shard node-name lists")
        check_key("bounds", bounds,
                  isinstance(bounds, list) and all(map(is_number, bounds)),
                  "a list of numbers")
        return cls(
            table=table, column=column, shards=doc["shards"],
            replicas=doc["replicas"],
            replica_map=tuple(tuple(names) for names in replica_map),
            kind=doc.get("kind", "hash"),
            bounds=tuple(float(b) for b in bounds),
            quorum=doc.get("quorum", 1),
        )


class PlacementMap:
    """The fleet's data layout: one :class:`TablePlacement` per table.

    Tables absent from the map stay fully replicated (any node serves
    them), so an empty map reproduces the seed model exactly.  Shard
    requirements per statement (:meth:`required_shards`) are memoized --
    the map is immutable once built, so the SQL walk happens once per
    distinct template.
    """

    def __init__(self, tables: list[TablePlacement] | tuple = ()):
        self.tables: dict[str, TablePlacement] = {}
        for tp in tables:
            if tp.table in self.tables:
                raise ValueError(f"duplicate placement for {tp.table!r}")
            self.tables[tp.table] = tp
        self._shards_cache: dict[str, frozenset | None] = {}

    # -- construction / serialization ---------------------------------

    def to_dict(self) -> dict:
        return {
            "tables": [
                self.tables[name].to_dict() for name in sorted(self.tables)
            ]
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PlacementMap":
        """A map from the ``{"tables": [...]}`` plan schema; a malformed
        document is a ``ValueError`` naming the table's index, the key
        and the offending value."""
        if not isinstance(doc, dict):
            raise ValueError(
                "expected an object with a 'tables' list, got a "
                f"{type(doc).__name__}"
            )
        unknown = set(doc) - {"tables"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        tables = doc.get("tables")
        check_key("tables", tables, isinstance(tables, list), "a list")
        placements = []
        for i, raw in enumerate(tables):
            try:
                placements.append(TablePlacement.from_dict(raw))
            except ValueError as exc:
                raise ValueError(f"table {i}: {exc}") from None
        return cls(placements)

    @property
    def node_names(self) -> frozenset[str]:
        """Every node name the replica maps reference."""
        return frozenset(
            name
            for tp in self.tables.values()
            for holders in tp.replica_map
            for name in holders
        )

    def for_table(self, name: str) -> TablePlacement | None:
        return self.tables.get(name)

    def shards_of(self, node_name: str) -> frozenset[tuple[str, int]]:
        """The ``(table, shard)`` pairs ``node_name`` initially holds."""
        held = set()
        for tp in self.tables.values():
            for shard, holders in enumerate(tp.replica_map):
                if node_name in holders:
                    held.add((tp.table, shard))
        return frozenset(held)

    # -- statement -> shards ------------------------------------------

    def required_shards(self, sql: str) -> frozenset[tuple[str, int]] | None:
        """The ``(table, shard)`` pairs ``sql`` may touch, or ``None``
        when it references no placed table (any node can serve it)."""
        try:
            return self._shards_cache[sql]
        except KeyError:
            pass
        required = self._required_shards(sql)
        self._shards_cache[sql] = required
        return required

    def _required_shards(self, sql: str):
        try:
            select = parse(sql)
        except DatabaseError:
            select = None
        if select is None or not isinstance(select, ast.Select):
            # Cannot prove locality; require every shard of every
            # placed table (correct, maximally conservative).
            required = frozenset(
                (tp.table, shard)
                for tp in self.tables.values()
                for shard in range(tp.shards)
            )
            return required or None
        required = set()
        placed = False
        for ref in select.tables:
            tp = self.tables.get(ref.name)
            if tp is None:
                continue
            placed = True
            for shard in self._predicate_shards(tp, select.where):
                required.add((tp.table, shard))
        if not placed:
            return None
        return frozenset(required)

    def _predicate_shards(self, tp: TablePlacement, where) -> frozenset[int]:
        values = _column_values(tp.column, where) if where is not None \
            else None
        if values is None:
            return frozenset(range(tp.shards))
        shards = set()
        for value in values:
            try:
                shards.add(tp.shard_of(value))
            except TypeError:
                # A value the partition scheme cannot order/hash
                # against (e.g. string vs numeric range bounds).
                return frozenset(range(tp.shards))
        return frozenset(shards)


def _column_values(column: str, expr) -> frozenset | None:
    """The provable value set of ``column`` under ``expr``.

    Returns a frozenset S meaning "rows satisfying ``expr`` have
    ``column`` in S", or ``None`` when no constraint can be derived
    (the caller must then assume all shards).
    """
    if isinstance(expr, ast.Comparison) and expr.op == "=":
        value = _equality_value(column, expr.left, expr.right)
        if value is None:
            value = _equality_value(column, expr.right, expr.left)
        return None if value is None else frozenset([value[0]])
    if isinstance(expr, ast.InList):
        if (isinstance(expr.operand, ast.ColumnRef)
                and expr.operand.name == column
                and all(isinstance(i, ast.Literal) for i in expr.items)):
            return frozenset(i.value for i in expr.items)
        return None
    if isinstance(expr, ast.And):
        left = _column_values(column, expr.left)
        right = _column_values(column, expr.right)
        if left is None:
            return right
        if right is None:
            return left
        return left & right
    if isinstance(expr, ast.Or):
        left = _column_values(column, expr.left)
        right = _column_values(column, expr.right)
        if left is None or right is None:
            return None
        return left | right
    return None


def _equality_value(column: str, col_side, lit_side):
    """``(value,)`` when ``col_side = lit_side`` pins ``column``."""
    if (isinstance(col_side, ast.ColumnRef) and col_side.name == column
            and isinstance(lit_side, ast.Literal)):
        return (lit_side.value,)
    return None


# -- generated defaults and JSON plans --------------------------------


def generate_placement(
    nodes,
    shards: int,
    replicas: int,
    table: str = "lineitem",
    column: str = "l_quantity",
    kind: str = "hash",
    quorum: int | str = 1,
    bounds: tuple[float, ...] = (),
) -> PlacementMap:
    """The CLI's ``--shards N --replicas k`` default layout.

    Shard ``i`` is held by ``replicas`` consecutive nodes starting at
    ``i mod n`` (chained declustering), which spreads both primaries
    and recovery load evenly.  ``nodes`` accepts ``NodeSpec``-likes or
    plain names; ``quorum`` accepts ``"majority"``.
    """
    names = [
        n if isinstance(n, str)
        else getattr(n, "name", None) or n.spec.name
        for n in nodes
    ]
    if replicas > len(names):
        raise ValueError(
            f"replicas ({replicas}) cannot exceed the fleet size "
            f"({len(names)})"
        )
    if quorum == "majority":
        quorum = replicas // 2 + 1
    replica_map = tuple(
        tuple(names[(i + j) % len(names)] for j in range(replicas))
        for i in range(shards)
    )
    return PlacementMap([
        TablePlacement(
            table=table, column=column, shards=shards, replicas=replicas,
            replica_map=replica_map, kind=kind, bounds=tuple(bounds),
            quorum=int(quorum),
        )
    ])


def load_placement(path: str) -> PlacementMap:
    """Load a JSON placement plan (see :meth:`PlacementMap.to_dict`);
    any malformed content is a ``ValueError`` that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return PlacementMap.from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"placement {path}: {exc}") from None


# -- quorum constraints for consolidating routers ---------------------


def quorum_cover(placement, nodes) -> set[str]:
    """A deterministic set of node names keeping >= quorum replicas of
    every shard awake; always includes the first node (matching the
    consolidate routers' placement-free starting set)."""
    cover = {nodes[0].spec.name}
    fleet = {n.spec.name for n in nodes}
    for name in sorted(placement.tables):
        tp = placement.tables[name]
        for shard in range(tp.shards):
            holders = [h for h in tp.replica_map[shard] if h in fleet]
            need = tp.quorum - sum(1 for h in holders if h in cover)
            for holder in holders:
                if need <= 0:
                    break
                if holder not in cover:
                    cover.add(holder)
                    need -= 1
    return cover


class QuorumCounts:
    """Awake replicas per shard (numbered in ``(table, shard)`` order),
    kept as counts, so a consolidating router's quorum checks walk no
    fleet.  Built after the run's node resets, the counts install
    themselves on every node of ``fleet`` (``SimulatedNode.quorum``),
    which then reports each wake, sleep and crash that moves it.  A
    crashed node is asleep, so never counted; an awake node inside an
    unavailability window comes off the counts at the instant asked
    about.
    """

    def __init__(self, placement: PlacementMap, fleet):
        keys = [(name, shard) for name in sorted(placement.tables)
                for shard in range(placement.tables[name].shards)]
        self._code = {key: k for k, key in enumerate(keys)}
        self.quorum = [placement.tables[name].quorum for name, _ in keys]
        self.awake = [0] * len(keys)
        self._held: dict = {}  # node -> its shard codes, in fleet order
        for node in fleet:
            node.quorum = self
            self._held[node] = sorted(map(self._code.get, node.shards or ()))
            self.moved(node, node.awake)
        self._flaky = [n for n in self._held if n.faults is not None
                       and n.faults.specs_for(n.spec.name, "unavailable")]

    def moved(self, node, step: int) -> None:
        """``node`` woke (``step`` 1) or went to sleep (-1)."""
        for k in self._held[node]:
            self.awake[k] += step

    def hold(self, node, key: tuple[str, int]) -> None:
        """``node`` holds shard ``key`` from now on."""
        self._held[node].append(self._code[key])
        self.awake[self._code[key]] += node.awake

    def _serving(self, now_s: float) -> list[int]:
        """Per shard, the awake replicas serviceable at ``now_s``."""
        serving = list(self.awake)
        for node in self._flaky:
            if node.awake and not node.can_serve(now_s):
                for k in self._held[node]:
                    serving[k] -= 1
        return serving

    def sleep_would_break(self, node, now_s: float) -> bool:
        """Whether sleeping ``node`` leaves one of its shards with fewer
        than quorum awake serviceable replicas on the other nodes: a
        hot shard's last awake replica never sleeps, however low the
        demand."""
        serving = self._serving(now_s)
        mine = node.awake and node.can_serve(now_s)
        return any(serving[k] - mine < self.quorum[k]
                   for k in self._held[node])

    def wake_candidates(self, now_s: float) -> list:
        """The sleeping serviceable nodes to wake so that every shard
        has >= quorum awake replicas again, in fleet order; each closes
        the gaps it holds, so the list is minimal, not every sleeping
        holder."""
        need = [q - n for q, n in zip(self.quorum, self._serving(now_s))]
        if max(need, default=0) <= 0:
            return []
        candidates = []
        for node in self._held:
            if node.awake or not node.can_serve(now_s):
                continue
            gaps = [k for k in self._held[node] if need[k] > 0]
            for k in gaps:
                need[k] -= 1
            if gaps:
                candidates.append(node)
        return candidates


# -- re-replication copy work -----------------------------------------

#: CPU spent marshalling/shipping each copied byte, at the light duty
#: cycle of a background transfer.
COPY_CPU_CYCLES_PER_BYTE = 0.5
COPY_CPU_UTILIZATION = 0.30
#: Sequential transfer chunk size (one disk op per chunk).
COPY_IO_OP_BYTES = 1 << 20


def replication_copy_trace(shard_bytes: float) -> CompiledTrace:
    """Compiled copy work for re-replicating one shard.

    Billed on *both* endpoints: the source performs the sequential read
    and ships rows, the destination receives and performs the
    sequential write.  The same trace runs on each end (each node bills
    its own modeled duration/energy for it), which keeps the joule
    attribution symmetric without modeling a network link the hardware
    layer does not have.
    """
    if shard_bytes < 0:
        raise ValueError("shard_bytes must be non-negative")
    ops = max(1, math.ceil(shard_bytes / COPY_IO_OP_BYTES))
    return Trace([
        DiskAccess(ops, shard_bytes, sequential=True, write=False,
                   label="re-replicate read"),
        CpuWork(shard_bytes * COPY_CPU_CYCLES_PER_BYTE,
                COPY_CPU_UTILIZATION, label="re-replicate ship"),
        DiskAccess(ops, shard_bytes, sequential=True, write=True,
                   label="re-replicate write"),
    ]).compiled()
