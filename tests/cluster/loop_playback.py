"""Per-query playback loop for cluster schedules (test oracle).

``play_loop`` is the loop ``repro.cluster.playback`` shipped beside the
stacked playback: one ``run_compiled`` call per scheduled piece, under
the setting the piece was scheduled with.  ``play_batched`` must agree
with it on every node's energy to float-summation order.
:func:`loop_playback` is ``sim.playback(schedule)`` with each node's
``RunMeasurement`` swapped for the loop's, so the identity tests
compare two whole :class:`~repro.cluster.measure.ClusterMeasurement`
records.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.measure import ClusterMeasurement, zero_measurement
from repro.cluster.node import SimulatedNode
from repro.cluster.playback import _node_settings
from repro.cluster.simulator import ClusterSchedule, ClusterSimulator
from repro.hardware.cpu import PvcSetting
from repro.hardware.system import RunMeasurement
from repro.hardware.trace import CompiledTrace


def play_loop(
    nodes: list[SimulatedNode],
    pieces_by_node: dict[str, list[CompiledTrace]],
    workload_class: str,
    settings_by_node: dict[str, list[PvcSetting]] | None = None,
) -> dict[str, RunMeasurement]:
    """The per-query replay loop: one playback call per scheduled piece.

    This is the naive path batched playback replaces -- kept as the
    oracle for the conservation tests.
    """
    out: dict[str, RunMeasurement] = {}
    for node in nodes:
        pieces = pieces_by_node[node.spec.name]
        settings = _node_settings(node, pieces, settings_by_node)
        total = zero_measurement()
        original = node.sut.setting
        try:
            for piece, setting in zip(pieces, settings):
                if node.sut.setting != setting:
                    node.sut.apply_setting(setting)
                total = total + node.sut.run_compiled(piece, workload_class)
        finally:
            node.sut.apply_setting(original)
        out[node.spec.name] = total
    return out


def loop_playback(sim: ClusterSimulator,
                  schedule: ClusterSchedule) -> ClusterMeasurement:
    """``sim.playback(schedule)`` with node energies from :func:`play_loop`.

    Needs a loop-engine schedule (``schedule(..., vectorized=False)``
    or an ineligible configuration): a vectorized schedule has no
    per-piece timeline to replay.
    """
    assert schedule.columnar is None, "loop playback needs the loop engine"
    measured = sim.playback(schedule)
    loop = play_loop(schedule.nodes, schedule.pieces_by_node,
                     schedule.workload_class, schedule.settings_by_node)
    return replace(measured, nodes=[
        replace(usage, playback=loop[usage.name])
        for usage in measured.nodes
    ])
