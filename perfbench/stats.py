"""Order statistics the benchmark reports.

Every value is a measured sample (nearest rank), never an interpolation, so
a reported time is one that actually happened.
"""

from __future__ import annotations

import math

#: tail percentiles tried from the highest down
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
#: a tail percentile is reported only with this many samples above it
MIN_ABOVE = 10


def nearest_rank(samples, pct: float) -> float:
    """The smallest sample with at least ``pct`` percent of samples at or below it."""
    if not samples:
        raise ValueError("nearest_rank: no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def samples_above(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(round(pct / 100.0 * n, 9)))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder that leaves MIN_ABOVE samples above it."""
    for pct in TAIL_LADDER:
        if samples_above(n, pct) >= MIN_ABOVE:
            return pct
    return None
