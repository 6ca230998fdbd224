"""Order statistics for the benchmark's timings.

A timing is reported as its median and, where the sample allows it, a
tail percentile. A percentile q is reportable only when at least ten
samples lie beyond it, and never from fewer than forty samples: below
that only the median is a stable figure.
"""

import math

MIN_BEYOND = 10
MIN_FOR_TAIL = 40


def samples_beyond(n, q):
    """How many of n samples lie above the q-th percentile."""
    return n * (100.0 - q) / 100.0


def reportable(n, q):
    """Whether the q-th percentile of n samples may be reported."""
    if n < 1:
        return False
    if q == 50:
        return True
    return n >= MIN_FOR_TAIL and samples_beyond(n, q) >= MIN_BEYOND


def min_samples(q):
    """Smallest sample count for which the q-th percentile is reportable."""
    if q == 50:
        return 1
    return max(MIN_FOR_TAIL, math.ceil(MIN_BEYOND * 100.0 / (100.0 - q)))


def percentile(values, q):
    """Linearly interpolated q-th percentile (numpy's default method).

    Raises ValueError when the sample is too small for q to be reported.
    """
    data = sorted(values)
    n = len(data)
    if not reportable(n, q):
        raise ValueError(f"p{q:g} needs at least {min_samples(q)} samples, got {n}")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)
