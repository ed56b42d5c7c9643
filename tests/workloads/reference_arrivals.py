"""Per-draw reference loops for the arrival generators (test oracle).

These are the scalar generators ``repro.workloads.arrivals`` shipped
before streams became columnar: one ``rng`` draw and one ``Arrival``
object per query.  The columnar generators must reproduce their floats
*exactly* (``==``, not approx) and leave a shared ``rng`` in the same
state -- pinned run ids hash the packed arrival times, and a fault plan
sharing the generator draws its outcomes from whatever state the
arrivals left behind.  ``merge_reference`` is the ``heapq.merge`` the
array merge replaced.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.workloads.arrivals import Arrival, RateSchedule


def poisson_reference(queries, mean_interarrival_s, seed=0, start_s=0.0,
                      rng=None) -> list[Arrival]:
    if rng is None:
        rng = np.random.default_rng(seed)
    now = start_s
    out = []
    for sql in queries:
        now += float(rng.exponential(mean_interarrival_s))
        out.append(Arrival(sql, now))
    return out


def uniform_reference(queries, interarrival_s, start_s=0.0) -> list[Arrival]:
    return [
        Arrival(sql, start_s + (i + 1) * interarrival_s)
        for i, sql in enumerate(queries)
    ]


def bursty_reference(queries, burst_size, burst_gap_s, within_burst_s=0.01,
                     start_s=0.0) -> list[Arrival]:
    out = []
    now = start_s
    for i, sql in enumerate(queries):
        if i and i % burst_size == 0:
            now += burst_gap_s
        else:
            now += within_burst_s
        out.append(Arrival(sql, now))
    return out


def rate_schedule_reference(queries, schedule: RateSchedule, seed=0,
                            start_s=0.0, rng=None) -> list[Arrival]:
    if not queries:
        return []
    if rng is None:
        rng = np.random.default_rng(seed)
    out = []
    elapsed = 0.0
    index = 0
    while True:
        elapsed += float(rng.exponential(1.0 / schedule.peak_rate))
        if elapsed > schedule.horizon_s:
            break
        if rng.uniform() * schedule.peak_rate <= schedule.rate_at(elapsed):
            out.append(Arrival(queries[index % len(queries)],
                               start_s + elapsed))
            index += 1
    return out


def merge_reference(*streams) -> list[Arrival]:
    return list(heapq.merge(*streams, key=lambda a: a.time_s))
