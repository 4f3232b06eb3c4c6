"""Exponential-smoothing and naive forecast engines.

One fit/forecast contract covers the benchmark families: naive, seasonally
adjusted naive (naive2), SES, Holt, damped trend, and the multiplicative
seasonal variants of the trended pair. Parameters are estimated by a
deterministic grid search minimising the in-sample one-step squared error,
with ties broken toward the lexicographically smallest parameter vector.

Seasonal-capable families consult the seasonality test and silently fall
back to their non-seasonal sibling when it fails, so ``holt_winters`` on a
period-1 series is exactly Holt and ``naive2`` on non-seasonal data is
exactly the naive random walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seasonal import SeasonalIndices, seasonal_indices, seasonality_applies
from .series import TimeSeries

FAMILIES = ("naive", "naive2", "ses", "holt", "holt_winters", "damped", "seasonal_damped")

_TRENDED = frozenset({"holt", "damped", "holt_winters", "seasonal_damped"})
_SEASONAL = frozenset({"naive2", "holt_winters", "seasonal_damped"})
_SIBLING = {"naive2": "naive", "holt_winters": "holt", "seasonal_damped": "damped"}

PHI_MIN, PHI_MAX = 0.80, 0.98

_WEIGHT_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
_PHI_GRID = np.round(np.arange(PHI_MIN, PHI_MAX + 1e-9, 0.01), 2)
# A 0.01 grid on three or four weights is 1e6+ combinations per fit; the
# seasonal families search a coarser weight grid instead.
_SEASONAL_WEIGHT_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2)


@dataclass(frozen=True)
class ForecasterSpec:
    """A forecast family plus optionally pinned parameters.

    A pinned parameter replaces the grid search on that dimension; pinning
    is mainly a test hook (e.g. SES at a fixed alpha) and accepts phi = 1,
    which reduces the damped family to Holt.
    """

    family: str
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    phi: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.phi is not None and not 0.0 < self.phi <= 1.0:
            raise ValueError(f"phi must lie in (0, 1], got {self.phi}")


@dataclass(frozen=True)
class FittedForecaster:
    """Frozen result of a fit: chosen parameters, final states, minimum SSE."""

    spec: ForecasterSpec
    family_used: str
    n: int
    sse: float
    seasonal: bool = False
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    phi: float | None = None
    level: float | None = None
    trend: float | None = None
    seasonal_states: np.ndarray | None = None
    naive_level: float | None = None
    reseason: SeasonalIndices | None = None


def _pinned_or(grid: np.ndarray, pinned: float | None) -> np.ndarray:
    return grid if pinned is None else np.array([float(pinned)])


def _sanitize(sse: np.ndarray) -> np.ndarray:
    # degenerate parameter combinations can overflow; never let them win
    return np.where(np.isfinite(sse), sse, np.inf)


def _fit_naive(spec: ForecasterSpec, series: TimeSeries, seasonal: bool) -> FittedForecaster:
    y = series.values
    if seasonal:
        idx = seasonal_indices(series)
        d = y / idx.indices[np.arange(y.size) % idx.period]
        preds = d[:-1] * idx.indices[np.arange(1, y.size) % idx.period]
        sse = float(np.sum((y[1:] - preds) ** 2))
        return FittedForecaster(
            spec=spec,
            family_used="naive2",
            n=series.n,
            sse=sse,
            seasonal=True,
            naive_level=float(d[-1]),
            reseason=idx,
        )
    sse = float(np.sum(np.diff(y) ** 2))
    return FittedForecaster(
        spec=spec, family_used="naive", n=series.n, sse=sse, naive_level=float(y[-1])
    )


def _line_grid(spec: ForecasterSpec, family: str):
    """The flattened (alpha, beta, phi) search grid of a ses, holt or damped fit.

    ``beta`` and ``phi`` are None for ses; phi is 1 throughout for holt.
    """
    alphas = _pinned_or(_WEIGHT_GRID, spec.alpha)
    if family == "ses":
        return alphas, None, None
    betas = _pinned_or(_WEIGHT_GRID, spec.beta)
    phis = np.array([1.0]) if family == "holt" else _pinned_or(_PHI_GRID, spec.phi)
    a, b, p = (g.ravel() for g in np.meshgrid(alphas, betas, phis, indexing="ij"))
    return a, b, p


def _min_n(family: str) -> int:
    return 3 if family in _TRENDED else 2


def _recurrence(y: np.ndarray, alpha: np.ndarray, beta=None, phi=None):
    """Run SES (``beta`` None) or Holt/damped over ``y`` at every grid point at once.

    Yields ``(e, level, trend)`` after each of y_2..y_n: the one-step errors
    of that observation and the states after it. The first observation seeds
    the level and, for the trended families, y_2 - y_1 seeds the trend; the
    prediction of y_2 is then fully determined by the seeds, so its error is
    None. ``y`` may carry trailing axes, e.g. shape (n, k, 1) runs k inputs
    side by side; every state then has shape (k, grid size).

    The recurrence is linear in ``y`` for fixed parameters, which
    ``groe.estimate_theta`` relies on.
    """
    shape = np.broadcast_shapes(np.shape(y[0]), alpha.shape)
    level = np.full(shape, y[0])
    trend = None if beta is None else np.full(shape, y[1] - y[0])
    one_minus_alpha = 1.0 - alpha
    one_minus_beta = None if beta is None else 1.0 - beta
    for t in range(1, len(y)):
        pred = level if trend is None else level + phi * trend
        e = None if trend is not None and t < 2 else y[t] - pred
        new_level = alpha * y[t] + one_minus_alpha * pred
        if trend is not None:
            trend = beta * (new_level - level) + one_minus_beta * (phi * trend)
        level = new_level
        yield e, level, trend


def _fit_line(spec: ForecasterSpec, series: TimeSeries, family: str) -> FittedForecaster:
    alpha, beta, phi = _line_grid(spec, family)
    sse = np.zeros(alpha.shape)
    with np.errstate(all="ignore"):
        for e, level, trend in _recurrence(series.values, alpha, beta, phi):
            if e is not None:
                sse += e * e
    best = int(np.argmin(_sanitize(sse)))
    return FittedForecaster(
        spec=spec,
        family_used=family,
        n=series.n,
        sse=float(sse[best]),
        alpha=float(alpha[best]),
        beta=None if beta is None else float(beta[best]),
        phi=float(phi[best]) if family == "damped" else None,
        level=float(level[best]),
        trend=None if trend is None else float(trend[best]),
    )


def _fit_seasonal_trended(
    spec: ForecasterSpec, series: TimeSeries, family: str
) -> FittedForecaster:
    y = series.values
    m = series.period
    init = seasonal_indices(series).indices
    alphas = _pinned_or(_SEASONAL_WEIGHT_GRID, spec.alpha)
    betas = _pinned_or(_SEASONAL_WEIGHT_GRID, spec.beta)
    gammas = _pinned_or(_SEASONAL_WEIGHT_GRID, spec.gamma)
    phis = np.array([1.0]) if family == "holt_winters" else _pinned_or(_PHI_GRID, spec.phi)
    a, b, g, p = (
        grid.ravel() for grid in np.meshgrid(alphas, betas, gammas, phis, indexing="ij")
    )
    level = np.full(a.shape, y[0])
    trend = np.full(a.shape, y[1] - y[0])
    seas = np.tile(init, (a.size, 1))
    sse = np.zeros(a.shape)
    with np.errstate(all="ignore"):
        for t in range(1, y.size):
            col = t % m
            s_col = seas[:, col]
            base = level + p * trend
            if t >= 2:
                e = y[t] - base * s_col
                sse += e * e
            new_level = a * (y[t] / s_col) + (1.0 - a) * base
            trend = b * (new_level - level) + (1.0 - b) * (p * trend)
            seas[:, col] = g * (y[t] / new_level) + (1.0 - g) * s_col
            level = new_level
    best = int(np.argmin(_sanitize(sse)))
    return FittedForecaster(
        spec=spec,
        family_used=family,
        n=series.n,
        sse=float(sse[best]),
        seasonal=True,
        alpha=float(a[best]),
        beta=float(b[best]),
        gamma=float(g[best]),
        phi=None if family == "holt_winters" else float(p[best]),
        level=float(level[best]),
        trend=float(trend[best]),
        seasonal_states=seas[best].copy(),
    )


def fit(spec: ForecasterSpec, series: TimeSeries) -> FittedForecaster:
    """Fit a forecast family to a series.

    Degenerate inputs (e.g. constant series) are not errors: the grid search
    simply returns its best point, which yields flat forecasts.
    """
    family = spec.family
    seasonal = family in _SEASONAL and seasonality_applies(series)
    effective = _SIBLING[family] if family in _SEASONAL and not seasonal else family
    min_n = _min_n(effective)
    if series.n < min_n:
        raise ValueError(
            f"series {series.id!r}: family {family!r} needs n >= {min_n}, got n={series.n}"
        )
    if effective in ("naive", "naive2"):
        return _fit_naive(spec, series, seasonal)
    if effective in ("ses", "holt", "damped"):
        return _fit_line(spec, series, effective)
    return _fit_seasonal_trended(spec, series, effective)


def forecast(fitted: FittedForecaster, h: int) -> np.ndarray:
    """Point forecasts for steps 1..h from the fitted final states."""
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    k = np.arange(1, h + 1)
    family = fitted.family_used
    if family == "naive":
        return np.full(h, fitted.naive_level)
    if family == "naive2":
        cols = (fitted.n + k - 1) % fitted.reseason.period
        return fitted.naive_level * fitted.reseason.indices[cols]
    if family == "ses":
        return np.full(h, fitted.level)
    if family == "holt":
        return fitted.level + k * fitted.trend
    if family == "damped":
        return fitted.level + np.cumsum(fitted.phi ** k) * fitted.trend
    cols = (fitted.n + k - 1) % fitted.seasonal_states.size
    if family == "holt_winters":
        return (fitted.level + k * fitted.trend) * fitted.seasonal_states[cols]
    # seasonal_damped
    damp = np.cumsum(fitted.phi ** k)
    return (fitted.level + damp * fitted.trend) * fitted.seasonal_states[cols]
