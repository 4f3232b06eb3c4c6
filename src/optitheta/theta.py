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


@np.errstate(over="ignore", invalid="ignore")  # TimeSeries refuses a line beyond the float range
def theta_line(series: TimeSeries, fit: TrendFit, theta: float) -> TimeSeries:
    """Build Z_t(theta) = theta*y_t + (1-theta)*(intercept + slope*t) for t = 1..n.

    The theta line keeps the series' id and period.
    """
    t = np.arange(1, series.n + 1)
    return series.with_values(theta * series.values + (1.0 - theta) * trend_value(fit, t))


def otm_forecast(
    series: TimeSeries, theta: float, h: int, extrapolator: ForecasterSpec = SES, fitted=None,
    fit: TrendFit | None = None,
) -> np.ndarray:
    """Combined forecasts from the trend line and the extrapolated theta line.

    For each step k = 1..h returns
    ``(1 - 1/theta) * (trend at n+k) + (1/theta) * (theta-line forecast k)``.
    The trend weight is exactly zero at theta = 1, where the result equals
    the extrapolator applied directly to the series. ``fitted``, when given,
    is the extrapolator's fit of the theta line, made elsewhere (in a batch),
    and ``fit``, when given, the series' OLS line that theta line was built on.
    """
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1, got {theta}")
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    check_extrapolator(extrapolator)
    if fit is None:
        fit = fit_linear_trend(series)
    if fitted is None:
        fitted = smoothing.fit(extrapolator, theta_line(series, fit, theta))
    return recombine(fit, theta, series.n, smoothing.forecast(fitted, h), h)


def recombine(fit: TrendFit, theta, origin, line, h: int) -> np.ndarray:
    """``(1 - 1/theta) * (trend at origin+k) + (1/theta) * line`` for k = 1..h, where ``line``
    is the theta line's forecasts from ``origin``; ``theta`` may be a column, one row per theta,
    and ``fit``'s fields and ``origin`` arrays that broadcast against ``line``, one per origin."""
    k = np.arange(1, h + 1)
    return (1.0 - 1.0 / theta) * trend_value(fit, origin + k) + (1.0 / theta) * line
