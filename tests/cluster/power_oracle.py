"""The single-lexsort peak-power sweep the blocked sweep replaced (test
oracle).

Every power step of the run -- each window's start and end, each
sleep-to-wake and awake-to-sleep transition -- was concatenated into
one pair of full-length arrays, lexsorted on (time, step) and summed
from the fleet's starting draw in one ``cumsum``.
``test_peak_power.py`` holds ``ClusterSimulator._peak_model_power_w``
to this form by ``float.hex``, over stand-in nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.cluster import ClusterSimulator
from repro.cluster.playback import ScheduleTable
from repro.core.fleet import ServerSpec


@dataclass
class StandInNode:
    """The node surface the sweep reads: envelope, sleep watts, the
    starting state and the wake and sleep logs."""

    envelope: ServerSpec
    started_awake: bool = True
    wake_log: list = field(default_factory=list)
    sleep_log: list = field(default_factory=list)

    @property
    def spec(self):
        return SimpleNamespace(sleep_wall_w=self.envelope.sleep_wall_w)

    def power_estimate(self) -> ServerSpec:
        return self.envelope


def blocked_sweep(nodes, windows: ScheduleTable) -> float:
    """The simulator's own sweep over ``nodes`` (it reads nothing else
    of the simulator but the class's ``SCHEDULE_CHUNK``)."""
    sim = object.__new__(ClusterSimulator)
    sim.nodes = nodes
    return sim._peak_model_power_w(windows)


def peak_model_power_w(nodes, windows: ScheduleTable) -> float:
    baseline = 0.0
    deltas = np.empty(len(nodes))
    step_t: list[float] = []
    step_w: list[float] = []
    for j, node in enumerate(nodes):
        est = node.power_estimate()
        sleep_step = est.idle_wall_w - node.spec.sleep_wall_w
        if node.started_awake:
            baseline += est.idle_wall_w
        else:
            baseline += node.spec.sleep_wall_w
        for called, _ready in node.wake_log:
            step_t.append(called)
            step_w.append(sleep_step)
        for start, _end in node.sleep_log:
            if start > 0.0:
                step_t.append(start)
                step_w.append(-sleep_step)
        deltas[j] = est.busy_wall_w - est.idle_wall_w
    busy = deltas[windows.node_idx]
    t = np.concatenate([step_t, windows.start_s, windows.end_s])
    w = np.concatenate([step_w, busy, -busy])
    del busy
    power = np.empty(len(w) + 1)
    power[0] = baseline
    np.take(w, np.lexsort((w, t)), out=power[1:])
    return float(np.cumsum(power, out=power).max())
