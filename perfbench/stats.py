"""Order statistics for per-operation latencies."""

import math
import statistics


def latency_summary(samples):
    """Median and 90th percentile of `samples`, with the sample counts.

    The median is the usual interpolated one.  The 90th percentile is the
    nearest-rank value: the smallest sample with at least 90% of all
    samples at or below it.  `beyond_p90` counts the samples strictly
    after it in sorted order, so a caller can see whether the tail
    estimate rests on at least ten samples.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(0.9 * n))
    return {
        "p50": statistics.median(ordered),
        "p90": ordered[rank - 1],
        "n": n,
        "beyond_p90": n - rank,
    }
