"""Policy inputs are finite numbers, or a named error.

A NaN or infinite QED wait, retry backoff, metrics window or router
bound does not fail on its own: comparisons with NaN are all False, so
a NaN window never advances the metrics sampler, a NaN wait strands
queued arrivals and a NaN power cap or backlog bound passes a ``<= 0``
check.  ``BatchPolicy``, ``RetryPolicy``, ``MetricsRegistry`` and the
routers reject such values when built, naming the field and the value,
and the CLI turns that into exit status 2.
"""

import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import (
    AdaptivePvcRouter,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    PowerCapRouter,
    RetryPolicy,
)
from repro.core.qed.policy import BatchPolicy
from repro.obs import MetricsRegistry

NAN, INF = math.nan, math.inf
FAULT_PLAN = str(
    Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"
)

CASES = [
    # (id, constructor, kwargs, the error message or None when valid)
    ("batch", BatchPolicy, {"threshold": 16}, None),
    ("batch-wait", BatchPolicy, {"threshold": 16, "max_wait_s": 0.0},
     None),
    ("batch-wait-nan", BatchPolicy, {"threshold": 16, "max_wait_s": NAN},
     "max_wait_s must be non-negative and finite, got nan"),
    ("batch-wait-inf", BatchPolicy, {"threshold": 16, "max_wait_s": INF},
     "max_wait_s must be non-negative and finite, got inf"),
    ("batch-wait-negative", BatchPolicy,
     {"threshold": 16, "max_wait_s": -1.0},
     "max_wait_s must be non-negative and finite, got -1.0"),
    ("batch-threshold-zero", BatchPolicy, {"threshold": 0},
     "threshold must be >= 1 and finite, got 0"),
    ("batch-threshold-inf", BatchPolicy, {"threshold": INF},
     "threshold must be >= 1 and finite, got inf"),
    ("retry", RetryPolicy, {}, None),
    ("retry-no-backoff", RetryPolicy, {"backoff_s": 0.0}, None),
    ("retry-backoff-nan", RetryPolicy, {"backoff_s": NAN},
     "backoff_s must be non-negative and finite, got nan"),
    ("retry-backoff-inf", RetryPolicy, {"backoff_s": INF},
     "backoff_s must be non-negative and finite, got inf"),
    ("retry-multiplier-inf", RetryPolicy, {"multiplier": INF},
     "multiplier must be >= 1 and finite, got inf"),
    ("retry-multiplier-nan", RetryPolicy, {"multiplier": NAN},
     "multiplier must be >= 1 and finite, got nan"),
    ("retry-attempts-inf", RetryPolicy, {"max_attempts": INF},
     "max_attempts must be >= 1 and finite, got inf"),
    ("retry-attempts-zero", RetryPolicy, {"max_attempts": 0},
     "max_attempts must be >= 1 and finite, got 0"),
    ("metrics", MetricsRegistry, {"window_s": 0.5}, None),
    # Building the registry is the whole check: a NaN window that got
    # past it would sample forever, so no schedule runs here.
    ("metrics-window-nan", MetricsRegistry, {"window_s": NAN},
     "window_s must be positive and finite, got nan"),
    ("metrics-window-inf", MetricsRegistry, {"window_s": INF},
     "window_s must be positive and finite, got inf"),
    ("metrics-window-zero", MetricsRegistry, {"window_s": 0.0},
     "window_s must be positive and finite, got 0.0"),
    ("consolidate", ConsolidateRouter, {"max_backlog_s": 1.0}, None),
    ("consolidate-backlog-nan", ConsolidateRouter, {"max_backlog_s": NAN},
     "max_backlog_s must be positive and finite, got nan"),
    ("consolidate-backlog-inf", ConsolidateRouter, {"max_backlog_s": INF},
     "max_backlog_s must be positive and finite, got inf"),
    ("consolidate-backlog-zero", ConsolidateRouter, {"max_backlog_s": 0.0},
     "max_backlog_s must be positive and finite, got 0.0"),
    ("dynamic", DynamicConsolidateRouter,
     {"max_backlog_s": 1.0, "hysteresis": 0.0}, None),
    ("dynamic-backlog-nan", DynamicConsolidateRouter,
     {"max_backlog_s": NAN},
     "max_backlog_s must be positive and finite, got nan"),
    ("dynamic-hysteresis-nan", DynamicConsolidateRouter,
     {"max_backlog_s": 1.0, "hysteresis": NAN},
     "hysteresis must be non-negative and finite, got nan"),
    ("dynamic-hysteresis-inf", DynamicConsolidateRouter,
     {"max_backlog_s": 1.0, "hysteresis": INF},
     "hysteresis must be non-negative and finite, got inf"),
    ("dynamic-hysteresis-negative", DynamicConsolidateRouter,
     {"max_backlog_s": 1.0, "hysteresis": -0.1},
     "hysteresis must be non-negative and finite, got -0.1"),
    ("adaptive", AdaptivePvcRouter, {"deadline_s": 0.5}, None),
    ("adaptive-deadline-nan", AdaptivePvcRouter, {"deadline_s": NAN},
     "deadline_s must be positive and finite, got nan"),
    ("adaptive-deadline-inf", AdaptivePvcRouter, {"deadline_s": INF},
     "deadline_s must be positive and finite, got inf"),
    ("adaptive-deadline-zero", AdaptivePvcRouter, {"deadline_s": 0.0},
     "deadline_s must be positive and finite, got 0.0"),
    ("powercap", PowerCapRouter, {"cap_w": 500.0}, None),
    ("powercap-delay", PowerCapRouter,
     {"cap_w": 500.0, "max_delay_s": 0.0}, None),
    ("powercap-cap-nan", PowerCapRouter, {"cap_w": NAN},
     "cap_w must be positive and finite, got nan"),
    ("powercap-cap-inf", PowerCapRouter, {"cap_w": INF},
     "cap_w must be positive and finite, got inf"),
    ("powercap-cap-negative", PowerCapRouter, {"cap_w": -1.0},
     "cap_w must be positive and finite, got -1.0"),
    ("powercap-delay-nan", PowerCapRouter,
     {"cap_w": 500.0, "max_delay_s": NAN},
     "max_delay_s must be non-negative and finite, got nan"),
    ("powercap-delay-inf", PowerCapRouter,
     {"cap_w": 500.0, "max_delay_s": INF},
     "max_delay_s must be non-negative and finite, got inf"),
]


@pytest.mark.parametrize(
    "make, kwargs, error", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_policy_inputs(make, kwargs, error):
    if error is None:
        make(**kwargs)
        return
    with pytest.raises(ValueError) as raised:
        make(**kwargs)
    assert str(raised.value) == error


@pytest.mark.parametrize("flags, error", [
    (["--qed", "master", "--qed-threshold", "16", "--qed-max-wait", "nan"],
     "max_wait_s must be non-negative and finite, got nan"),
    (["--qed", "master", "--qed-threshold", "16", "--qed-max-wait", "inf"],
     "max_wait_s must be non-negative and finite, got inf"),
    (["--faults", FAULT_PLAN, "--retry-backoff", "inf"],
     "backoff_s must be non-negative and finite, got inf"),
    (["--policy", "powercap", "--cap-w", "nan"],
     "cap_w must be positive and finite, got nan"),
    (["--policy", "powercap", "--max-delay", "nan"],
     "max_delay_s must be non-negative and finite, got nan"),
    (["--policy", "consolidate", "--max-backlog", "nan"],
     "max_backlog_s must be positive and finite, got nan"),
    (["--policy", "adaptive", "--deadline", "nan"],
     "deadline_s must be positive and finite, got nan"),
    (["--policy", "dynamic", "--hysteresis", "nan"],
     "hysteresis must be non-negative and finite, got nan"),
], ids=["qed-max-wait-nan", "qed-max-wait-inf", "retry-backoff-inf",
        "cap-w-nan", "max-delay-nan", "max-backlog-nan", "deadline-nan",
        "hysteresis-nan"])
def test_cli_rejects_non_finite_policy_flags(capsys, flags, error):
    rc = main(["cluster", "--sf", "0.002", "--nodes", "2",
               "--arrivals", "5", *flags])
    assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")
