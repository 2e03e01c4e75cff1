"""Order statistics for benchmark samples."""

from __future__ import annotations

import statistics

import numpy as np

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, sample count), or None when there are too
    few samples for even the median to have ten beyond it.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            return p, float(np.percentile(values, p)), n
    return None


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
