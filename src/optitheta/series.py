"""Core series container and ordinary-least-squares trend fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def with_values(self, values) -> "TimeSeries":
        """A copy of this series with replaced observations."""
        return TimeSeries(self.id, values, self.period)


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line ``intercept + slope * t`` on the time index t = 1..n.

    The fields may also be arrays, one line per element (see :func:`prefix_trends`).
    """

    intercept: float
    slope: float


@np.errstate(over="ignore", invalid="ignore")  # a non-finite line fails its cell downstream
def prefix_trends(y: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Intercepts and slopes of the least-squares lines of y_1..y_L on t = 1..L,
    one per length L of ``lengths`` (each at least 2 and at most ``y.size``).

    Each line is computed on its prefix alone, with ``(L + 1) / 2`` and
    ``y[:L].sum() / L`` for the means of t and y (both exactly what ``mean``
    returns), so it is bit-identical to :func:`fit_linear_trend` of the prefix.
    """
    t = np.arange(1.0, max(lengths) + 1)
    intercepts, slopes = np.empty(len(lengths)), np.empty(len(lengths))
    for i, n in enumerate(lengths):
        t_mean = (n + 1) / 2
        t_dev = t[:n] - t_mean
        y_mean = y[:n].sum() / n
        # exactly np.dot(t_dev, t_dev) for n < 300,000 on any kernel: all its sums are k/4 < 2**53
        slopes[i] = np.dot(t_dev, y[:n] - y_mean) / ((n * n - 1) * n / 12)
        intercepts[i] = y_mean - slopes[i] * t_mean
    return intercepts, slopes


def fit_linear_trend(series: TimeSeries) -> TrendFit:
    """Fit y_t on t = 1..n by ordinary least squares.

    Returns the unique minimizer of sum((y_t - a - b*t)^2). Raises
    ``ValueError`` for series shorter than two observations.
    """
    n = series.n
    if n < 2:
        raise ValueError(f"series {series.id!r}: trend fitting needs n >= 2, got n={n}")
    (intercept,), (slope,) = prefix_trends(series.values, [n])
    return TrendFit(intercept=float(intercept), slope=float(slope))


def trend_value(fit: TrendFit, t):
    """Evaluate the fitted line at time ``t`` (scalar or array of indices)."""
    out = fit.intercept + fit.slope * np.asarray(t, dtype=np.float64)
    return float(out) if out.ndim == 0 else out
