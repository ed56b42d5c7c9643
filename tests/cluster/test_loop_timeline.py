"""The loop timeline's rows at its edges, one table.

Each case is one node's logs -- sleep spans, wake transitions, busy
windows, retunes -- and the rows ``loop_timeline`` must build from
them, pinned by hand: ``("busy", trace key, setting)`` for a window,
``(label, idle seconds, setting)`` for an idle, wake or straggler row.
Every case also matches the piece oracle in ``loop_playback.py``, and
its playback the oracle's batched playback, field for field.
"""

from __future__ import annotations

from itertools import count

import pytest

from loop_playback import node_timeline_pieces, play_batched
from repro.cluster.measure import ScheduledWork
from repro.cluster.node import NodeSpec
from repro.cluster.playback import (
    IDLE_LABELS,
    loop_timeline,
    play_timeline,
    window_table,
)
from repro.cluster.simulator import NodeTimeline
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.profiles import paper_sut
from repro.hardware.system import CPU_BOUND
from repro.hardware.trace import CpuWork, DiskAccess, Trace

STOCK = PvcSetting()
ECO = PvcSetting(10, VoltageDowngrade.MEDIUM)
NAMES = {STOCK: "stock", ECO: "eco"}

TABLE = {
    "q1": Trace([CpuWork(2e9, label="scan")]).compiled(),
    "q2": Trace([CpuWork(1e9, label="scan"),
                 DiskAccess(4, 65536.0, sequential=True, label="io")]
                ).compiled(),
}


_QUERY_IDS = count()


def _work(key, start, end, setting=None, stretch=0.0):
    """A window answering one query, under a fresh stream index."""
    return ScheduledWork(key, start, end, (next(_QUERY_IDS),),
                         setting=setting, stretch_s=stretch)


def _node(scheduled=(), sleep_log=(), wake_log=(), setting_log=None,
          started_awake=True):
    return NodeTimeline(
        spec=NodeSpec("n0"), sut=paper_sut(), scheduled=tuple(scheduled),
        started_awake=started_awake, sleep_log=tuple(sleep_log),
        wake_log=tuple(wake_log),
        setting_log=setting_log or ((0.0, STOCK),),
    )


#: (case id, node, horizon_s, expected rows)
CASES = [
    ("empty-stream", _node(), 0.0, []),
    ("empty-stream-idles-to-the-horizon", _node(), 2.0,
     [("idle", 2.0, "stock")]),
    ("asleep-never-wakes",
     _node(sleep_log=[(0.0, None)], started_awake=False), 5.0, []),
    ("wake-ends-inside-the-next-window",
     _node(sleep_log=[(0.0, 1.0)], wake_log=[(1.0, 1.5)],
           scheduled=[_work("q1", 1.25, 2.0)], started_awake=False),
     3.0,
     [("wake", 0.5, "stock"), ("busy", "q1", "stock"),
      ("idle", 1.0, "stock")]),
    # At one (start, end) a sleep sorts before a wake, which it
    # swallows, and the wake before the window.
    ("sleep-wake-busy-tied",
     _node(sleep_log=[(1.0, 2.0)], wake_log=[(1.0, 2.0)],
           scheduled=[_work("q1", 1.0, 2.0)]),
     2.0,
     [("idle", 1.0, "stock"), ("busy", "q1", "stock")]),
    ("wake-busy-tied",
     _node(wake_log=[(1.0, 2.0)], scheduled=[_work("q1", 1.0, 2.0)]),
     2.0,
     [("idle", 1.0, "stock"), ("wake", 1.0, "stock"),
      ("busy", "q1", "stock")]),
    # The gap test is strict: 1e-12 s is no gap, 2e-12 s is one.
    ("gap-of-exactly-1e-12",
     _node(scheduled=[_work("q1", 1e-12, 1.0)]), 1.0,
     [("busy", "q1", "stock")]),
    ("gap-of-2e-12",
     _node(scheduled=[_work("q1", 2e-12, 1.0)]), 1.0,
     [("idle", 2e-12, "stock"), ("busy", "q1", "stock")]),
    ("straggler-stretch",
     _node(scheduled=[_work("q2", 0.0, 1.5, stretch=0.5)]), 2.0,
     [("busy", "q2", "stock"), ("straggler", 0.5, "stock"),
      ("idle", 0.5, "stock")]),
    ("stretch-of-1e-12-is-none",
     _node(scheduled=[_work("q2", 0.0, 1.0, stretch=1e-12)]), 1.0,
     [("busy", "q2", "stock")]),
    # A gap containing a retune plays wholly under its entry setting.
    ("retune-inside-a-gap",
     _node(scheduled=[_work("q1", 0.0, 1.0, STOCK),
                      _work("q2", 2.0, 3.0, ECO)],
           setting_log=((0.0, STOCK), (1.5, ECO))),
     4.0,
     [("busy", "q1", "stock"), ("idle", 1.0, "stock"),
      ("busy", "q2", "eco"), ("idle", 1.0, "eco")]),
    # ... unless the retune is stamped within 1e-12 s of the gap's start.
    ("retune-within-1e-12-of-the-cursor",
     _node(scheduled=[_work("q1", 0.0, 1.0, STOCK)],
           setting_log=((0.0, STOCK), (1.0 + 5e-13, ECO))),
     2.0,
     [("busy", "q1", "stock"), ("idle", 1.0, "eco")]),
    ("retune-2e-12-past-the-cursor",
     _node(scheduled=[_work("q1", 0.0, 1.0, STOCK)],
           setting_log=((0.0, STOCK), (1.0 + 2e-12, ECO))),
     2.0,
     [("busy", "q1", "stock"), ("idle", 1.0, "stock")]),
]


def _rows(node, horizon_s):
    windows = window_table([node], TABLE)
    timeline = loop_timeline([node], windows, horizon_s)
    keys = list(TABLE)
    rows = []
    for code, idle_s, label, at in zip(
        timeline.trace_idx, timeline.idle_s, timeline.label,
        timeline.setting_idx,
    ):
        setting = NAMES[timeline.settings[at]]
        if code >= 0:
            rows.append(("busy", keys[code], setting))
        else:
            rows.append((IDLE_LABELS[label], float(idle_s), setting))
    return rows, timeline


def _machine(pair):
    """The paper machine at ``pair``'s setting, as the simulator's
    machine lookup gives it."""
    sut = paper_sut()
    sut.apply_setting(pair[1])
    return sut


@pytest.mark.parametrize(
    "node, horizon_s, expected",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES],
)
def test_timeline_rows(node, horizon_s, expected):
    rows, timeline = _rows(node, horizon_s)
    assert rows == expected
    assert list(timeline.offsets) == [0, len(expected)]

    pieces, settings = node_timeline_pieces(node, TABLE, horizon_s)
    assert len(pieces) == len(rows)
    for (kind, value, setting), piece, want in zip(rows, pieces, settings):
        assert setting == NAMES[want]
        if kind == "busy":
            assert piece is TABLE[value]
        else:
            assert piece.labels == (kind,)
            assert float(piece.seconds[0]).hex() == value.hex()

    played = play_timeline([node], list(TABLE.values()), timeline,
                           CPU_BOUND, _machine)
    oracle = play_batched([node], {"n0": pieces}, CPU_BOUND,
                          {"n0": settings})
    assert played == [oracle["n0"]]
