"""Sample statistics the harness reports: capped percentiles and spreads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: A percentile is only reported while at least this many samples lie
#: beyond it; above that the tail is a handful of points, not a metric.
MIN_BEYOND = 10


def capped_percentile(samples: Sequence[float], fraction: float) -> Tuple[float, float]:
    """Nearest-rank percentile, capped so ``MIN_BEYOND`` samples lie beyond.

    Returns ``(value, effective fraction)``.  With too few samples for any
    cap (fewer than ``2 * MIN_BEYOND + 1``) the median is returned, which
    is what the data can still support.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * MIN_BEYOND + 1:
        return statistics.median(ordered), 0.5
    rank = max(0, math.ceil(fraction * count) - 1)
    rank = min(rank, count - 1 - MIN_BEYOND)
    return ordered[rank], (rank + 1) / count


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else math.inf


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus the durations of direct children.

    ``spans`` rows are ``(name, start, end, parent, op_id)`` with ``parent``
    an index into the same sequence (``-1`` for a root).  Children run
    nested inside their parent on the same thread, so subtracting direct
    children is exact.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def busy_by_name(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """``name -> {calls, busy_s, total_s}`` aggregated over ``spans``."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"calls": 0, "busy_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += own
        entry["total_s"] += span[2] - span[1]
    return totals
