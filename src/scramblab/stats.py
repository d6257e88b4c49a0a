"""Small statistics helpers used by games, distinguishers, and experiments,
and ``MCEstimate``, the one record of a Monte Carlo mean and its standard error."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InvalidParameterError


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean (complex for a complex estimator), its standard error, trials."""

    mean: complex
    std_error: float
    trials: int


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    z = 1.96  # the two-sided 95% normal quantile
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return (center - half, center + half)


def linear_fit(xs, ys) -> tuple:
    """Least squares y = a*x + b; returns (slope, intercept, r_squared).

    Fewer than two distinct x raise ``DegenerateFitError``.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.unique(x).size < 2:
        raise DegenerateFitError(f"a line needs at least two distinct x, got {x.tolist()}")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
