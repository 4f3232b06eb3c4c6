"""Seasonality detection and multiplicative classical decomposition.

The seasonality test follows the M-competition convention: a series with
period m is declared seasonal when its lag-m autocorrelation falls outside
the 90% significance band ``1.645 * sqrt((1 + 2*sum(r_i^2, i<m)) / n)``.
Seasonal adjustment divides by per-season factors obtained from the
classical decomposition (centered moving average, ratio to moving average,
per-season mean, normalised to mean 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

ACF_CRITICAL = 1.645  # 90% band
MIN_CYCLES = 3  # full cycles required before testing for seasonality


@dataclass(frozen=True)
class SeasonalIndices:
    """Multiplicative per-season factors, normalised to mean 1."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.float64)
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("seasonal indices must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(idx)) or np.any(idx <= 0):
            raise ValueError("seasonal indices must be finite and positive")
        if abs(idx.mean() - 1.0) > 1e-9:
            raise ValueError(f"seasonal indices must average to 1, got mean {idx.mean()!r}")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def period(self) -> int:
        return self.indices.size


def autocorrelations(values, nlags: int) -> np.ndarray:
    """Sample autocorrelations r_1..r_nlags about the series mean.

    A zero-variance series has no defined autocorrelation; zeros are
    returned so that the seasonality test treats it as non-seasonal.
    """
    y = np.asarray(values, dtype=np.float64)
    if nlags >= y.size:
        raise ValueError(f"need more than {nlags} observations for lag-{nlags} autocorrelation")
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])  # exact: y's scale cannot overflow or underflow d*d
    d = y - y.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        return np.zeros(nlags)
    return np.array([float(np.dot(d[:-k], d[k:])) / denom for k in range(1, nlags + 1)])


def is_seasonal(series: TimeSeries) -> bool:
    """Test for statistically significant seasonality at lag ``period``.

    Non-seasonal by construction when period == 1 or when fewer than
    ``MIN_CYCLES`` full cycles are observed.
    """
    m = series.period
    n = series.n
    if m == 1 or n < MIN_CYCLES * m:
        return False
    r = autocorrelations(series.values, m)
    band = ACF_CRITICAL * np.sqrt((1.0 + 2.0 * np.sum(r[:-1] ** 2)) / n)
    return bool(abs(r[-1]) > band)


def seasonality_applies(series: TimeSeries) -> bool:
    """Whether multiplicative seasonal adjustment should be used.

    The multiplicative model needs strictly positive data; a series with
    any value <= 0 is treated as non-seasonal regardless of its ACF.
    """
    return bool(np.all(series.values > 0)) and is_seasonal(series)


def _centered_moving_average(y: np.ndarray, m: int) -> np.ndarray:
    # even periods use a 2xm window with half weights on the extremes
    if m % 2 == 0:
        w = np.concatenate(([0.5], np.ones(m - 1), [0.5])) / m
    else:
        w = np.full(m, 1.0 / m)
    return np.convolve(y, w, mode="valid")


def seasonal_indices(series: TimeSeries) -> SeasonalIndices:
    """Per-season factors from the classical multiplicative decomposition."""
    m = series.period
    y = series.values
    if m < 2:
        raise ValueError("seasonal decomposition needs period >= 2")
    if np.any(y <= 0):
        raise ValueError(
            f"series {series.id!r}: multiplicative decomposition needs strictly positive values"
        )
    trend = _centered_moving_average(y, m)
    if trend.size < m:
        raise ValueError(f"series {series.id!r}: too short for a full cycle of ratios")
    offset = m // 2  # first time index (0-based) with a defined moving average
    ratios = y[offset : offset + trend.size] / trend
    # season s's ratios are every m-th from the first index i with (offset + i) % m == s;
    # sum / size is exactly what mean() computes for them
    means = np.array([r.sum() / r.size for r in (ratios[(s - offset) % m :: m] for s in range(m))])
    return SeasonalIndices(means / means.mean())


def deseasonalize(series: TimeSeries, idx: SeasonalIndices) -> TimeSeries:
    """Divide each observation by the factor of its season position."""
    if idx.period != series.period:
        raise ValueError(
            f"index length {idx.period} does not match series period {series.period}"
        )
    t = np.arange(series.n)
    return series.with_values(series.values / idx.indices[t % series.period])


def reseasonalize(forecasts, idx: SeasonalIndices, start_t: int) -> np.ndarray:
    """Multiply forecasts by their season factors, continuing the in-sample phase.

    ``start_t`` is the 1-based time index of the first forecast, i.e. n + 1
    when forecasting after a series of length n.
    """
    f = np.asarray(forecasts, dtype=np.float64)
    if start_t < 1:
        raise ValueError(f"start_t must be a positive time index, got {start_t}")
    t = start_t - 1 + np.arange(f.size)
    return f * idx.indices[t % idx.period]
