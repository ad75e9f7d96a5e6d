"""Pure arithmetic the benchmark's verdicts rest on (tested in test_harness)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value.

    ``q`` is a fraction in ``(0, 1]``.  The rank is 1-based, so the index is
    ``ceil(q * n) - 1`` -- never ``ceil(q * n)`` (which reads one sample too
    high and turns p99 of 100 samples into the maximum).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q!r}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's spread)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def failed_commands(
    submitted: int, applied_per_replica: Sequence[int], consistent: bool
) -> int:
    """Commands *not* applied identically at every correct replica.

    A command counts as served only once every correct replica (a respawned
    one included) has applied it, so the slowest replica sets the count: a
    short or timed-out run fails everything still outstanding there.  When
    the replicas' logs are not consistent with one another (``consistent``
    false: digests or prefixes disagree) no command can be vouched for and
    the whole run fails.
    """
    if submitted < 0:
        raise ValueError(f"submitted must be >= 0, got {submitted}")
    if not consistent or not applied_per_replica:
        return submitted
    return max(0, submitted - min(applied_per_replica))


def failed_share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 1.0
