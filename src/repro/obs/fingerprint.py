"""Deterministic run identity: config fingerprint -> run-id.

Every ``schedule()`` call stamps its run with a short hex run-id
derived from a canonical-JSON fingerprint of everything that shapes the
outcome: the fleet's specs, the routing policy's scalar configuration,
the QED mode (master-queue policy + placement, or per-node policies),
the fault plan and retry policy, the workload class and scale factor,
and a digest of the arrival stream itself.  Two runs share a run-id iff
their configurations match, which is what makes benchmark-history
entries attributable to exact configs.

The arrival digest is deliberately cheap (CRC over the packed arrival
times plus the sorted distinct statements) so fingerprinting a
million-arrival stream stays far under the 5% disabled-path overhead
budget; it is a change detector, not a cryptographic commitment.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from collections.abc import Iterable
from typing import Any

from repro.workloads.arrivals import ArrivalStream


def describe_policy(obj: Any) -> dict | None:
    """A policy object's scalar configuration, for fingerprinting.

    Uses the object's own ``describe()`` when it defines one; otherwise
    scans public instance attributes, keeping scalars and lists whose
    elements describe themselves as scalars (a PVC ladder).  Private
    (mutable, per-run) state is excluded so the fingerprint is stable
    across runs of the same configuration.
    """
    if obj is None:
        return None
    describe = getattr(obj, "describe", None)
    if callable(describe):
        return describe()
    out: dict = {"policy": type(obj).__name__}
    for key, value in sorted(vars(obj).items()):
        if key.startswith("_"):
            continue
        if value is None or isinstance(value, (bool, int, float, str)):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            parts = [
                v.describe() if hasattr(v, "describe") else v
                for v in value
            ]
            if all(isinstance(p, (bool, int, float, str)) for p in parts):
                out[key] = list(parts)
    return out


def describe_fleet(specs: Iterable[Any]) -> list[dict]:
    """Node specs as plain dicts (settings via their ``describe()``)."""
    out: list[dict] = []
    for spec in specs:
        out.append({
            "name": spec.name,
            "hw": spec.hw,
            "setting": spec.setting.describe(),
            "sleep_wall_w": spec.sleep_wall_w,
            "wake_latency_s": spec.wake_latency_s,
            "capacity": spec.capacity,
            "queue": describe_policy(spec.queue_policy),
        })
    return out


def arrivals_digest(arrivals: Iterable[Any]) -> dict:
    """Cheap change-detecting digest of one arrival stream: read off
    the :class:`~repro.workloads.arrivals.ArrivalStream` columns (any
    other sequence of arrivals is coerced once)."""
    stream = ArrivalStream.coerce(arrivals)
    distinct = sorted(
        stream.distinct[d] for d in stream.first_seen().tolist()
    )
    return {
        "count": len(stream),
        "times_crc": zlib.crc32(stream.times.tobytes()),
        "distinct": len(distinct),
        "sql_crc": zlib.crc32("\n".join(distinct).encode()),
    }


def config_fingerprint(
    specs: Iterable[Any],
    router: Any,
    master_queue: Any = None,
    faults: Any = None,
    retry: Any = None,
    arrivals: Iterable[Any] | None = None,
    workload_class: str = "",
    scale_factor: float | None = None,
    placement: Any = None,
) -> dict:
    """Everything that shapes a run's outcome, as a JSON-able dict.

    An *empty* fault plan fingerprints as no plan at all -- it injects
    nothing, and the simulator's identity guard promises byte-equal
    runs either way.  A data-placement map contributes its full shard
    layout under ``"placement"``; the key is present only when a map is
    active, so no-placement fingerprints (and their run-ids) are
    unchanged from the fully-replicated seed.
    """
    plan = None
    if faults is not None and not faults.empty:
        plan = faults.to_dict()
    qed = None
    if master_queue is not None:
        qed = {
            "mode": "master",
            "policy": describe_policy(master_queue.policy),
            "placement": describe_policy(master_queue.placement),
        }
    out: dict = {
        "fleet": describe_fleet(specs),
        "router": describe_policy(router),
        "qed": qed,
        "faults": plan,
        "retry": describe_policy(retry) if plan is not None else None,
        "arrivals": (
            arrivals_digest(arrivals) if arrivals is not None else None
        ),
        "workload_class": workload_class,
        "scale_factor": scale_factor,
    }
    if placement is not None:
        out["placement"] = placement.to_dict()
    return out


def run_id_for(fingerprint: dict) -> str:
    """Short stable hex id of a canonical-JSON fingerprint."""
    canonical = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
