"""QED batching policies.

The paper's QED holds arriving queries in a queue and dispatches "when
the queue reaches a certain threshold".  :class:`BatchPolicy` adds the
practical guardrail a real deployment needs: a maximum wait so a
half-full queue still drains (the paper's SLA discussion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BatchPolicy:
    """Dispatch when ``threshold`` queries queue up or the oldest has
    waited ``max_wait_s`` (None disables the timeout, as in the paper's
    experiments)."""

    threshold: int
    max_wait_s: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.threshold < math.inf:
            raise ValueError(
                f"threshold must be >= 1 and finite, got {self.threshold!r}"
            )
        if self.max_wait_s is not None and not 0 <= self.max_wait_s < math.inf:
            raise ValueError(
                "max_wait_s must be non-negative and finite, got "
                f"{self.max_wait_s!r}"
            )

    def should_dispatch(self, queue_length: int,
                        oldest_wait_s: float) -> bool:
        if queue_length <= 0:
            return False
        if queue_length >= self.threshold:
            return True
        if self.max_wait_s is not None and oldest_wait_s >= self.max_wait_s:
            return True
        return False


#: The paper's experimental batch sizes.
PAPER_POLICIES = [BatchPolicy(n) for n in (35, 40, 45, 50)]
