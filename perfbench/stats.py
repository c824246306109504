"""Summary statistics shared by the benchmark runner and the steadiness check."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

# integer percentiles only: p99.9 of a large pool sits among the rare multi-ms
# preemption spikes of a shared host and does not repeat from run to run
_CANDIDATES = range(1, 100)


def nearest_rank(samples: Sequence[float], p: int) -> Tuple[float, int]:
    """The nearest-rank p-th percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, -(-p * len(ordered) // 100))  # ceil(p n / 100) in integers
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Tuple[int, float, int]:
    """The highest percentile that leaves at least `beyond` samples above it.

    Returns (percentile, value, samples beyond).  With too few samples for
    any candidate percentile the maximum is returned as percentile 100 with
    zero samples beyond, so the caller can still report the sample count.
    """
    if not samples:
        raise ValueError("no samples")
    best: Optional[Tuple[int, float, int]] = None
    for p in _CANDIDATES:
        value, above = nearest_rank(samples, p)
        if above < beyond:
            break
        best = (p, value, above)
    if best is None:
        return 100, max(samples), 0
    return best


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else math.inf
    return q1, med, q3, spread
