"""Sampling statistics shared by the simulator and the benchmark harness.

Sampled simulation estimates a run's IPC from a handful of detailed
windows, so it needs instruction-weighted means with an honest dispersion
estimate and the small-sample Student-t factor for their confidence
intervals.
"""

from __future__ import annotations

import math
from typing import Iterable


#: Two-sided 95% Student-t critical values for 1..29 degrees of freedom.
#: Beyond that the normal approximation (1.96) is within half a percent.
_T_CRITICAL_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom.

    Sampled simulation works with a handful of windows, where the normal
    approximation's 1.96 badly understates the interval (the true factor at
    3 degrees of freedom is 3.18); beyond 29 degrees of freedom the normal
    value is returned.

    Raises
    ------
    ValueError
        If ``df`` is less than 1 (no dispersion estimate exists).
    """
    if df < 1:
        raise ValueError("t critical value needs at least 1 degree of freedom")
    if df <= len(_T_CRITICAL_95):
        return _T_CRITICAL_95[df - 1]
    return 1.96


def weighted_mean_std(values: Iterable[float],
                      weights: Iterable[float]) -> tuple[float, float | None]:
    """Weighted mean and (n-1)-corrected weighted sample standard deviation.

    Weights are importance weights (e.g. instructions measured per sampling
    window); with equal weights the result reduces exactly to the ordinary
    sample mean and standard deviation.  The standard deviation is ``None``
    for a single value -- one observation carries no dispersion information,
    and pretending otherwise (a std of 0.0) is precisely the degenerate
    confidence interval this helper exists to prevent.

    Raises
    ------
    ValueError
        If the sequences are empty, differ in length, or any weight is not
        strictly positive.
    """
    values = list(values)
    weights = list(weights)
    if not values:
        raise ValueError("weighted mean of an empty sequence is undefined")
    if len(values) != len(weights):
        raise ValueError(
            f"got {len(values)} values but {len(weights)} weights")
    if any(weight <= 0 for weight in weights):
        raise ValueError("weights must be strictly positive")
    total = float(sum(weights))
    mean = sum(w * v for v, w in zip(values, weights)) / total
    count = len(values)
    if count < 2:
        return mean, None
    variance = (sum(w * (v - mean) ** 2 for v, w in zip(values, weights))
                / total) * (count / (count - 1))
    return mean, math.sqrt(variance)
