"""Order statistics and span self-time arithmetic for the benchmark.

Pure Python on purpose: the benchmark's own tests exercise these without
importing numpy or the engine.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """Middle value; the mean of the two middle values for an even count."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile by linear interpolation between closest ranks.

    Rank ``q / 100 * (n - 1)`` of the sorted values, as numpy's default
    ``linear`` method computes it, so p0 is the minimum and p100 the
    maximum.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile's rank."""
    return n - 1 - math.floor(q / 100.0 * (n - 1))


Span = Tuple[str, float, float, int]  # (name, start, end, parent index or -1)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; their union is subtracted once, and
    any part of a child outside its parent's interval is ignored.
    """
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]
