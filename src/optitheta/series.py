"""Core series container and ordinary-least-squares trend fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeSeries", "TrendFit", "fit_linear_trend", "trend_value"]


@dataclass(frozen=True)
class TimeSeries:
    """A univariate series y_1..y_n with a seasonal period.

    ``period`` is the number of observations per seasonal cycle (12 for
    monthly data, 4 for quarterly, 1 for data without a cycle). Values are
    stored as a read-only float64 array; ``values[0]`` is y_1.
    """

    id: str
    values: np.ndarray
    period: int = 1

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"series {self.id!r}: values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"series {self.id!r}: values must be finite with no missing entries")
        if not float(self.period).is_integer() or self.period < 1:
            raise ValueError(f"series {self.id!r}: period must be an integer >= 1, got {self.period}")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "period", int(self.period))

    @property
    def n(self) -> int:
        return self.values.size

    def prefix(self, length: int) -> "TimeSeries":
        """The first ``length`` observations, keeping id and period."""
        if not 1 <= length <= self.n:
            raise ValueError(f"prefix length {length} out of range for n={self.n}")
        return TimeSeries(self.id, self.values[:length], self.period)

    def with_values(self, values) -> "TimeSeries":
        """A copy of this series with replaced observations."""
        return TimeSeries(self.id, values, self.period)


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line ``intercept + slope * t`` on the time index t = 1..n."""

    intercept: float
    slope: float


def fit_linear_trend(series: TimeSeries) -> TrendFit:
    """Fit y_t on t = 1..n by ordinary least squares.

    Returns the unique minimizer of sum((y_t - a - b*t)^2). Raises
    ``ValueError`` for series shorter than two observations.
    """
    y = series.values
    n = y.size
    if n < 2:
        raise ValueError(f"series {series.id!r}: trend fitting needs n >= 2, got n={n}")
    t = np.arange(1, n + 1, dtype=np.float64)
    t_dev = t - t.mean()
    y_mean = y.mean()
    slope = float(np.dot(t_dev, y - y_mean) / np.dot(t_dev, t_dev))
    return TrendFit(intercept=float(y_mean - slope * t.mean()), slope=slope)


def trend_value(fit: TrendFit, t):
    """Evaluate the fitted line at time ``t`` (scalar or array of indices)."""
    out = fit.intercept + fit.slope * np.asarray(t, dtype=np.float64)
    return float(out) if out.ndim == 0 else out
