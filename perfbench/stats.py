"""Order statistics for latency samples."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between the
    closest ranks, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)
