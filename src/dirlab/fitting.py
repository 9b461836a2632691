"""Ordinary least squares exponent fits on log-log series."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_power_law(xs, ys) -> FitResult | None:
    """Fit y = exp(b) * x^a by least squares on (log x, log y).

    Pairs with an entry that is not positive and finite cannot be logged and
    are dropped; fewer than three usable points yields None.
    """
    logs = [
        (math.log(float(x)), math.log(float(y)))
        for x, y in zip(xs, ys)
        if 0 < float(x) < math.inf and 0 < float(y) < math.inf
    ]
    n = len(logs)
    if n < 3:
        return None
    mean_x = sum(p[0] for p in logs) / n
    mean_y = sum(p[1] for p in logs) / n
    var = sum((p[0] - mean_x) ** 2 for p in logs)
    if var == 0:
        return None
    cov = sum((p[0] - mean_x) * (p[1] - mean_y) for p in logs)
    slope = cov / var
    intercept = mean_y - slope * mean_x
    ss_tot = sum((p[1] - mean_y) ** 2 for p in logs)
    ss_res = sum((p[1] - (intercept + slope * p[0])) ** 2 for p in logs)
    if ss_tot == 0:
        r_squared = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, n_points=n)
