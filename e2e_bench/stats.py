"""Order statistics and the spread / verdict rules shared by every mode."""

from __future__ import annotations

import statistics


#: The calibration kernel's time on the reference host that every time
#: metric is scaled to.  Part of the benchmark's definition: changing it
#: rescales every number.
REFERENCE_KERNEL_MS = 2.0


def host_factor(kernel_ms: list) -> float:
    """Scale from this host, now, to the reference host: a time measured
    while the calibration kernel took ``kernel_ms`` (its samples alongside)
    is multiplied by ``REFERENCE_KERNEL_MS / median(kernel_ms)``."""
    return REFERENCE_KERNEL_MS / statistics.median(kernel_ms)


def percentile(values, fraction: float) -> float:
    """The ``fraction``-quantile (0..1), linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def enough_beyond(count: int, fraction: float, beyond: int = 10) -> bool:
    """A percentile is reported only where at least ``beyond`` samples lie
    on its far side."""
    return count * (1.0 - fraction) >= beyond


def spread(values) -> float:
    """Run-to-run spread as a share of the median: interquartile distance
    (``statistics.quantiles(n=4)``, the driver's rule) from four values up,
    the full range below that."""
    values = list(values)
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        return (third - first) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base`` as a share of ``base``
    (negative = better)."""
    if not base:
        return 0.0 if not other else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: list, other: list, better: str, bound: float) -> str:
    """``regressed`` / ``unchanged`` / ``unresolved`` for two sets of runs.

    Where either side's spread exceeds the bound the medians cannot
    resolve a change of that size: the pair is ``unresolved`` unless every
    run of one side beats every run of the other.
    """
    sign = 1 if better == "lower" else -1
    all_worse = min(sign * v for v in other) > max(sign * v for v in base)
    all_better = max(sign * v for v in other) < min(sign * v for v in base)
    change = worse_by(statistics.median(base), statistics.median(other),
                      better)
    if max(spread(base), spread(other)) > bound \
            and not (all_worse or all_better):
        return "unresolved"
    return "regressed" if change > bound else "unchanged"
