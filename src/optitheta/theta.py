"""Theta-line decomposition, exact recomposition weights, and combined forecasts.

A theta line ``theta * y_t + (1 - theta) * (a + b*t)`` damps (theta < 1) or
amplifies (theta > 1) the local curvature of a series around its fitted OLS
trend while preserving that trend. Splitting the data into the trend line
and one theta line with theta >= 1, the convex combination with weights
``(1 - 1/theta, 1/theta)`` reproduces the data exactly in sample; applying
the same weights to the extrapolated trend and the extrapolated theta line
gives the combined point forecasts. At theta = 1 the combination collapses
to the theta-line extrapolator applied to the raw data, and at theta = 2
with an SES extrapolator it is the classic equal-weight Theta forecast.
"""

from __future__ import annotations

import numpy as np

from . import smoothing
from .series import TimeSeries, TrendFit, fit_linear_trend, trend_value
from .smoothing import ForecasterSpec

LINE_EXTRAPOLATORS = ("ses", "damped")

SES = ForecasterSpec("ses")


def check_extrapolator(spec: ForecasterSpec) -> None:
    """Raise ``ValueError`` unless ``spec`` can extrapolate a theta line."""
    if spec.family not in LINE_EXTRAPOLATORS:
        raise ValueError(
            f"theta-line extrapolator must be one of {LINE_EXTRAPOLATORS}, got {spec.family!r}"
        )


def theta_line(series: TimeSeries, fit: TrendFit, theta: float) -> TimeSeries:
    """Build Z_t(theta) = theta*y_t + (1-theta)*(intercept + slope*t) for t = 1..n.

    The theta line keeps the series' id and period.
    """
    t = np.arange(1, series.n + 1, dtype=np.float64)
    values = theta * series.values + (1.0 - theta) * (fit.intercept + fit.slope * t)
    return series.with_values(values)


def combination_weight(theta1: float, theta2: float) -> float:
    """The unique weight that recomposes the original series from two theta lines.

    Defined for theta1 <= 1 <= theta2 as (theta2 - 1) / (theta2 - theta1),
    with the degenerate pair (1, 1) mapping to 1. Always lies in [0, 1].
    """
    if theta1 > 1.0 or theta2 < 1.0:
        raise ValueError(
            f"recomposition requires theta1 <= 1 <= theta2, got ({theta1}, {theta2})"
        )
    if theta1 == theta2:  # both are exactly 1
        return 1.0
    return (theta2 - 1.0) / (theta2 - theta1)


def recompose(line1: TimeSeries, line2: TimeSeries, omega: float) -> np.ndarray:
    """Elementwise convex combination ``omega*Z(theta1) + (1-omega)*Z(theta2)``."""
    if line1.values.size != line2.values.size:
        raise ValueError(
            f"theta lines differ in length: {line1.values.size} vs {line2.values.size}"
        )
    return omega * line1.values + (1.0 - omega) * line2.values


def otm_forecast(
    series: TimeSeries, theta: float, h: int, extrapolator: ForecasterSpec = SES
) -> np.ndarray:
    """Combined forecasts from the trend line and the extrapolated theta line.

    For each step k = 1..h returns
    ``(1 - 1/theta) * (trend at n+k) + (1/theta) * (theta-line forecast k)``.
    The trend weight is exactly zero at theta = 1, where the result equals
    the extrapolator applied directly to the series.
    """
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1, got {theta}")
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    check_extrapolator(extrapolator)
    fit = fit_linear_trend(series)
    fitted = smoothing.fit(extrapolator, theta_line(series, fit, theta))
    line_forecast = smoothing.forecast(fitted, h)
    k = np.arange(1, h + 1)
    return (1.0 - 1.0 / theta) * trend_value(fit, series.n + k) + (1.0 / theta) * line_forecast
