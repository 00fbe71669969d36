"""Arithmetic shared by the benchmark and its traced run: the percentile rule,
span self time, ratios that keep their base, and the quartile spread used to
judge whether a metric is steady across seeds."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

# Percentiles the report may use, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank ceil(pct/100 * n); the epsilon keeps 99.9% of
    10000 at rank 9990 despite binary rounding."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile of sorted samples."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie strictly after the nearest-rank percentile."""
    return n - _rank(n, pct)


def highest_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond
    it, or None when even the median has fewer."""
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile_label(pct: float) -> str:
    """99.0 -> 'p99', 99.9 -> 'p99.9'."""
    return "p" + (f"{pct:g}")


@dataclass(frozen=True)
class Ratio:
    """A ratio reported together with its numerator and base."""

    num: float
    base: float

    @property
    def value(self) -> float:
        # A ratio over an empty base reads 0: nothing was attempted, so
        # nothing was wasted.
        return self.num / self.base if self.base else 0.0

    def __str__(self) -> str:
        return f"{self.value:.6g} ({self.num:g}/{self.base:g})"


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - covered_length(clipped)


def quartile_spread(values: Sequence[float]) -> Ratio:
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4, its default 'exclusive' method)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return Ratio(q3 - q1, statistics.median(values))
