"""The benchmark's own arithmetic: percentiles, rates and medians.

Kept free of any ``repro`` import so the tests can check it alone.
"""

from __future__ import annotations

import math
import statistics
import typing as _t

#: a percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def percentile(
    values: _t.Sequence[float], q: float, *, min_beyond: int = MIN_BEYOND
) -> float | None:
    """The nearest-rank ``q``-quantile of ``values``, or ``None`` when
    fewer than ``min_beyond`` samples rank above it.

    With ``n`` samples the quantile is the ``ceil(q * n)``-th smallest;
    the ``n - ceil(q * n)`` samples after it are the ones "beyond".  A
    p99 therefore needs at least 1000 samples, a p50 at least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def rate(counts: _t.Sequence[float], walls: _t.Sequence[float]) -> float:
    """Work per second over every pass: total work over total wall.

    Summing before dividing weights each pass by its length, so one
    short pass on a fast moment cannot dominate the way a mean of
    per-pass rates would let it.
    """
    if len(counts) != len(walls):
        raise ValueError("one count per wall")
    total_wall = sum(walls)
    if total_wall <= 0:
        raise ValueError("rate needs a positive total wall")
    return sum(counts) / total_wall


def median(values: _t.Sequence[float]) -> float:
    """The median; raises on an empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))
