"""The per-node mask loop ``sequence_chunk_on_nodes`` used to be (test
oracle).

For every node it builds a boolean mask over the whole routed chunk and
runs the closed-form FIFO recurrence on the masked copies -- O(nodes x
chunk).  The grouped pass in ``repro.cluster.routing`` sorts the chunk
by node once and runs the same recurrence on each node's contiguous
slice; each slice holds exactly the values the mask selects, in the same
order, so the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def sequence_chunk_by_masks(times, service_s, node_idx, nodes):
    starts = np.empty_like(times)
    ends = np.empty_like(times)
    for j, node in enumerate(nodes):
        mask = node_idx == j
        t = times[mask]
        if t.size == 0:
            continue
        s = service_s[mask]
        csum = np.cumsum(s)
        anchor = np.maximum(t, node.busy_until) - (csum - s)
        e = csum + np.maximum.accumulate(anchor)
        ends[mask] = e
        # Starts come from the recurrence itself (max of arrival and
        # the previous end), not ``e - s``: re-deriving the max keeps
        # back-to-back pieces exactly contiguous where the closed-form
        # subtraction can land an ulp off and momentarily double-count
        # the node in power-step sweeps.
        prev_e = np.empty_like(e)
        prev_e[0] = node.busy_until
        prev_e[1:] = e[:-1]
        starts[mask] = np.maximum(t, prev_e)
        node.busy_until = float(e[-1])
    return starts, ends
