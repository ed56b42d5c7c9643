"""Energy attribution: who burned which joules, phase by phase.

The cluster's modeled energy is an integral of each node's linear power
envelope over the horizon: sleep watts asleep, idle watts awake (wake
transitions included), busy watts inside busy windows.  That integral
decomposes *exactly* into four phases per node --

    busy_j  = busy_wall_w  * busy_s
    wake_j  = idle_wall_w  * wake_s
    idle_j  = idle_wall_w  * (horizon - sleep - wake - busy)
    sleep_j = sleep_wall_w * sleep_s

-- whose sum reconciles against the independently computed
:attr:`ClusterMeasurement.modeled_wall_joules` to within
:data:`RECONCILE_TOLERANCE` (relative).  A crash's wasted busy time is
reported as a memo line (``wasted_by_crash_j``, from the fault report):
the crash *removed* those windows from the timeline, so the tiling
already bills that span at idle watts; the memo is the busy-watt
write-off the fleet paid for answers it never delivered, and it is
deliberately outside the reconciliation sum.

The exact playback totals (component-model energy) ride along for
comparison; attribution works on the modeled envelope because only the
envelope decomposes additively in time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs.tracer import SpanTable

#: Max |sum-of-phases - modeled total| / max(1, total), relative.
RECONCILE_TOLERANCE = 1e-9


def energy_attribution(measurement: Any) -> dict:
    """Per-node, per-phase joule breakdown of one cluster measurement."""
    nodes: dict = {}
    phase_totals = {"busy_j": 0.0, "idle_j": 0.0, "wake_j": 0.0,
                    "sleep_j": 0.0}
    modeled_sum = 0.0
    for n in measurement.nodes:
        breakdown = n.energy_breakdown()
        total = sum(breakdown.values())
        modeled_sum += total
        for phase, joules in breakdown.items():
            phase_totals[phase] += joules
        nodes[n.name] = dict(
            breakdown,
            modeled_total_j=total,
            playback_wall_j=n.wall_joules,
        )
    modeled_total = measurement.modeled_wall_joules
    wasted = (
        measurement.faults.wasted_joules
        if measurement.faults is not None else 0.0
    )
    error = abs(modeled_sum - modeled_total)
    return {
        "nodes": nodes,
        "phase_totals": phase_totals,
        "modeled_wall_joules": modeled_total,
        "playback_wall_joules": measurement.wall_joules,
        "wasted_by_crash_j": wasted,
        "reconciliation_abs_j": error,
        "reconciliation_rel": error / max(1.0, abs(modeled_total)),
    }


def render_attribution(doc: dict) -> str:
    """The attribution dict as a fixed-width report table."""
    lines = [
        f"  {'node':10s} {'busy J':>10} {'idle J':>10} {'wake J':>10} "
        f"{'sleep J':>10} {'modeled J':>11} {'playback J':>11}"
    ]
    for name, b in doc["nodes"].items():
        lines.append(
            f"  {name:10s} {b['busy_j']:10.1f} {b['idle_j']:10.1f} "
            f"{b['wake_j']:10.1f} {b['sleep_j']:10.1f} "
            f"{b['modeled_total_j']:11.1f} {b['playback_wall_j']:11.1f}"
        )
    t = doc["phase_totals"]
    lines.append(
        f"  {'total':10s} {t['busy_j']:10.1f} {t['idle_j']:10.1f} "
        f"{t['wake_j']:10.1f} {t['sleep_j']:10.1f} "
        f"{doc['modeled_wall_joules']:11.1f} "
        f"{doc['playback_wall_joules']:11.1f}"
    )
    lines.append(
        f"  reconciliation : |phases - modeled| = "
        f"{doc['reconciliation_abs_j']:.3e} J "
        f"(rel {doc['reconciliation_rel']:.3e})"
    )
    if doc.get("wasted_by_crash_j"):
        lines.append(
            f"  crash write-off: {doc['wasted_by_crash_j']:.1f} J burnt "
            f"at busy watts on lost work (memo; billed as idle in the "
            f"timeline)"
        )
    return "\n".join(lines)


def span_stats(spans: SpanTable) -> dict:
    """Per-phase span counts and total durations, by phase name.

    Computed from the table's columns; ``np.bincount`` adds each
    phase's durations in row order, so ``total_s`` is bit-for-bit the
    running sum over the spans.
    """
    names = sorted({name for name, _ in spans.kinds})
    position = {name: i for i, name in enumerate(names)}
    phase_of_kind = np.array(
        [position[name] for name, _ in spans.kinds], dtype=np.intp
    )
    phase = phase_of_kind[np.asarray(spans.kind, dtype=np.intp)]
    durations = (np.asarray(spans.end, dtype=np.float64)
                 - np.asarray(spans.start, dtype=np.float64))
    counts = np.bincount(phase, minlength=len(names)).tolist()
    totals = np.bincount(phase, weights=durations,
                         minlength=len(names)).tolist()
    return {
        name: {"count": count, "total_s": total}
        for name, count, total in zip(names, counts, totals) if count
    }


def render_span_stats(stats: dict) -> str:
    lines = [f"  {'phase':14s} {'count':>7} {'total s':>10}"]
    for name, entry in stats.items():
        lines.append(
            f"  {name:14s} {entry['count']:7d} {entry['total_s']:10.3f}"
        )
    return "\n".join(lines)
