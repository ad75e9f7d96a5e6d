"""Aggregation helpers for experiment sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.maximum,
        }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return sorted_values[low]
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def summarize(values: Iterable[float]) -> Optional[Summary]:
    """Summary of a sample; None if empty."""
    data = sorted(values)
    if not data:
        return None
    return Summary(
        count=len(data),
        mean=sum(data) / len(data),
        minimum=data[0],
        p50=percentile(data, 0.5),
        p95=percentile(data, 0.95),
        maximum=data[-1],
    )


def summarize_latencies(latencies: Sequence[float]) -> dict[str, float]:
    """Percentile summary of a latency sample in seconds, in milliseconds.

    Returns ``{"p50_ms", "p99_ms", "mean_ms", "max_ms"}`` (zeros for an
    empty sample).  Percentiles use the nearest-rank method on the sorted
    sample: the q-th percentile is the ``ceil(q * count)``-th smallest
    value, i.e. index ``ceil(q * count) - 1``.
    """
    if not latencies:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0, "max_ms": 0.0}
    ordered = sorted(latencies)
    count = len(ordered)

    def rank(q: float) -> float:
        index = max(0, math.ceil(q * count) - 1)
        return ordered[min(count - 1, index)]

    return {
        "p50_ms": rank(0.50) * 1000.0,
        "p99_ms": rank(0.99) * 1000.0,
        "mean_ms": sum(ordered) / count * 1000.0,
        "max_ms": ordered[-1] * 1000.0,
    }


__all__ = ["Summary", "percentile", "summarize", "summarize_latencies"]
