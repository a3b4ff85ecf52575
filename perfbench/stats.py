"""Order statistics and the serving ladder's capacity rule.

Stdlib only, so the orchestrating process never imports numpy or repro.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Samples a reported tail percentile must have beyond it.
TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percent`` % of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must lie in (0, 100], got {percent}")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 50)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(percent, value)`` of the highest percentile with at least
    ``beyond`` samples above it.

    A sample of ``beyond`` or fewer values supports no such percentile;
    its maximum is returned as the 100th.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1]


def lag_grows(lags_ms: Sequence[float], tolerance_ms: float) -> bool:
    """Whether send lag rose across a step: the median of its last third
    exceeds the median of its first third by more than ``tolerance_ms``.
    A backlog that keeps up stays flat; one that does not climbs."""
    third = len(lags_ms) // 3
    if third == 0:
        return False
    return median(lags_ms[-third:]) - median(lags_ms[:third]) > tolerance_ms


@dataclass
class StepResult:
    """One rung of the rate ladder, as the generator saw it.

    ``latencies_ms`` are timed from each request's due time; a failed
    request is ``math.inf`` there, so it misses any latency limit.
    ``lags_ms`` are send times minus due times, in due order.
    ``achieved_rps`` is the measured rate of successful replies.
    """

    rate: float
    latencies_ms: List[float]
    lags_ms: List[float]
    achieved_rps: float

    def passes(self, percent: float, limit_ms: float, lag_tolerance_ms: float) -> bool:
        return (
            nearest_rank(self.latencies_ms, percent) <= limit_ms
            and not lag_grows(self.lags_ms, lag_tolerance_ms)
        )


def max_rps(
    steps: Sequence[StepResult],
    percent: float,
    limit_ms: float,
    lag_tolerance_ms: float,
) -> float:
    """The achieved rate of the highest rung of a ladder, climbed in
    order, whose every rung up to and including it keeps its ``percent``
    latency within ``limit_ms`` with no growing backlog; 0 when the first
    rung fails."""
    best = 0.0
    for step in steps:
        if not step.passes(percent, limit_ms, lag_tolerance_ms):
            break
        best = step.achieved_rps
    return best
