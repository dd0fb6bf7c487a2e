"""Order statistics for the benchmark's latency samples.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, one slow item decides the number and the figure
is noise.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    Raises :class:`TooFewSamples` when fewer than ``MIN_BEYOND`` samples
    lie strictly above the chosen rank.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(math.ceil(q / 100 * n), 1)  # 1-based nearest rank
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1], beyond


def min_items_for(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile is reportable."""
    n = 1
    while n - max(math.ceil(q / 100 * n), 1) < MIN_BEYOND:
        n += 1
    return n


def class_boundary_margin(shares: dict[str, float], medians: dict[str, float], q: float) -> float:
    """Distance from quantile ``q`` (a fraction) to the nearest boundary
    between item classes.

    Classes are ordered by their median latency; their shares of the item
    count stack up to 1.  A percentile sitting close to a boundary flips
    between two classes' latencies under noise, so the workload mixes keep
    this margin wide.  Only boundaries strictly inside (0, 1) count.
    """
    order = sorted(shares, key=lambda c: medians[c])
    edges = []
    acc = 0.0
    for cls in order[:-1]:
        acc += shares[cls]
        edges.append(acc)
    if not edges:
        return 1.0
    return min(abs(q - e) for e in edges)
