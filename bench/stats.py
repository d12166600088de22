"""The few order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *samples*."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summary(values: Sequence[float]) -> Dict[str, object]:
    """What the suite writes per (workload, metric)."""
    q1, _mid, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "rounds": list(values),
    }
