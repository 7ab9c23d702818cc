"""Statistics the benchmark reports: medians, the tail-percentile rule,
self time over overlapping child spans, and failure counting."""
from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest last
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that leaves at
    least ``min_beyond`` samples above its nearest rank.  With too few
    samples for even the median to qualify, the maximum is returned as the
    100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for pct in reversed(PERCENTILE_LADDER):
        rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank, 1-based
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
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


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the union of its children's intervals,
    clipped to the span.  Children may overlap one another, as they do when
    they ran on different threads."""
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([(s, e) for s, e in clipped if e > s])


class Tally:
    """Runs attempted and runs failed, with the reasons of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, reasons) -> None:
        """Count one attempted run; it failed if it has any reason."""
        self.attempted += 1
        if reasons:
            self.failures.append(f"run {self.attempted}: " + "; ".join(reasons))

    @property
    def failed(self) -> int:
        return len(self.failures)
