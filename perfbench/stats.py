"""Summary statistics and naming rules shared by the benchmark's scripts."""

from __future__ import annotations

import math
import re
import statistics

# A metric name starts with a letter or digit and uses only [A-Za-z0-9_.-].
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles the tail rule may pick from, lowest first.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def valid_metric_name(name) -> bool:
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def check_metric_names(names):
    """Raise ValueError on the first invalid or repeated name."""
    seen = set()
    for name in names:
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def tail_percentile(n: int, min_beyond: int = 10):
    """Highest percentile in PERCENTILES with at least `min_beyond` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q in PERCENTILES:
        if samples_beyond(n, q) >= min_beyond:
            best = q
    return best


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
