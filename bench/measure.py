"""Arithmetic that turns per-item wall times into the end-to-end metrics."""

from __future__ import annotations

import resource
import statistics


def lower_quartile(values: list[float]) -> float:
    """First of the three cut points of ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        raise ValueError("a quartile needs at least two values")
    return statistics.quantiles(values, n=4)[0]


def blocked_lower_quartile(values: list[float], block: int) -> float:
    """Mean of the lower quartiles of consecutive blocks of ``block`` values.

    A trailing block of fewer than ``block`` values joins the block before
    it.  Within a block the quartile drops the short interruptions (collector
    pauses, a neighbour's burst); the mean over blocks weighs each of the
    host's speed phases by its share of the run instead of snapping to one.
    """
    if block < 2:
        raise ValueError("a block needs at least two values")
    starts = list(range(0, max(len(values) - block + 1, 1), block))
    ends = starts[1:] + [len(values)]
    return statistics.fmean(lower_quartile(values[a:b]) for a, b in zip(starts, ends))


def rate(count: int, seconds: float) -> float:
    """Items per second; the clock must have run."""
    if seconds <= 0.0:
        raise ValueError(f"rate over a non-positive time {seconds}")
    return count / seconds


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(item_seconds: list[float], setup_s: float, block: int) -> dict[str, dict]:
    """The four end-to-end metrics of one untraced run, named with units.

    ``block`` is the number of consecutive items whose lower quartile is
    taken before averaging (see ``blocked_lower_quartile``).
    """
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": rate(len(item_seconds), sum(item_seconds)),
                        "unit": "1/s"},
        "item_ms_p25": {"value": 1000.0 * blocked_lower_quartile(item_seconds, block),
                        "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
