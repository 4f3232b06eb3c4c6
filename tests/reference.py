"""The paper's definitions, computed the slow way, as oracles for the tests.

:func:`groe_loss` with :func:`otm_candidate` is the re-fit GROE loss: it
re-fits the optimised-theta forecaster on every prefix, once per grid theta.
The package computes the same choice without a re-fit, by superposition, in
``optitheta.groe.forecast_table``. :func:`combination_weight` and
:func:`recompose` are the two-line recomposition identity; the package
recombines the trend and one theta line in ``optitheta.theta.recombine``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from optitheta.groe import EvaluationError, GroeConfig, origin_schedule, resolve_cost
from optitheta.series import TimeSeries
from optitheta.smoothing import ForecasterSpec
from optitheta.theta import SES, otm_forecast

Candidate = Callable[[np.ndarray, int], np.ndarray]


def groe_loss(series: TimeSeries, candidate: Candidate, config: GroeConfig, cost="se") -> float:
    """Accumulated prediction cost over all origins of the schedule.

    At each origin n_i the candidate is called with the training prefix
    y_1..y_{n_i} and the inner horizon min(H, n - n_i); its forecasts are
    scored against the observations immediately after the origin. Origins
    with no room left contribute zero terms. Candidate exceptions are
    re-raised as :class:`EvaluationError` tagged with the origin.
    """
    g = resolve_cost(cost)
    y = series.values
    n = series.n
    total = 0.0
    for ni in origin_schedule(config, n):
        horizon = min(config.H, n - ni)
        if horizon <= 0:
            continue
        try:
            fx = np.asarray(candidate(y[:ni], horizon), dtype=np.float64)
        except Exception as exc:
            raise EvaluationError(f"candidate failed at origin {ni}: {exc}") from exc
        if fx.shape != (horizon,):
            raise EvaluationError(
                f"candidate at origin {ni} returned shape {fx.shape}, expected ({horizon},)"
            )
        total += float(np.sum(g(y[ni : ni + horizon], fx)))
    return total


def otm_candidate(theta: float, extrapolator: ForecasterSpec = SES) -> Candidate:
    """A closure that re-fits the optimised-theta forecaster on each training prefix."""

    def candidate(prefix: np.ndarray, horizon: int) -> np.ndarray:
        return otm_forecast(TimeSeries("groe-prefix", prefix), theta, horizon, extrapolator)

    return candidate


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
