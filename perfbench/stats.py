"""The benchmark's own arithmetic: percentiles and gap stalls."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1]


def tail_percentile(values: Sequence[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ``beyond``
    samples ranked above it.

    Returns (value, percentile, sample_count).  With n samples the value
    is the one of rank n - beyond (1-based), whose percentile is
    100 * (n - beyond) / n.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n


def stalled_iterations(gaps: Sequence[float]) -> int:
    """Iterations whose gap did not shrink: steps k >= 1 with
    gaps[k] >= gaps[k-1].  ``gaps[0]`` is the starting spread."""
    return sum(1 for prev, cur in zip(gaps, gaps[1:]) if cur >= prev)
