"""Summary statistics shared by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``.  Only tail percentiles count -- p50 up
    to p99.9, nearest-rank -- so with fewer than 20 samples, where not even
    the median leaves 10 beyond it, the maximum is returned as p100.
    """
    ordered = sorted(values)
    count = len(ordered)
    tenths = list(range(999, 990, -1)) + list(range(990, 499, -10))
    for tenth in tenths:
        rank = -(-tenth * count // 1000)  # nearest rank, 1-based, in exact integers
        if count - rank >= 10:
            return float(ordered[rank - 1]), tenth / 10.0
    return float(ordered[-1]), 100.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0
