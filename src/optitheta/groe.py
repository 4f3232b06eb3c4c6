"""Generalised rolling-origin evaluation and theta selection.

A GROE schedule places p forecast origins n1, n1+m, ..., n1+(p-1)m inside a
series; at each origin the candidate is fitted to the prefix and scored on
up to H subsequent observations with a symmetric cost. Fixed-origin
evaluation (p = 1), rolling-origin evaluation (m = 1, H >= n - n1) and the
in-sample one-step loss (n1 = 2, m = H = 1) are all special cases. The
theta coefficient is selected by brute force over a small grid.

:func:`groe_loss` with :func:`otm_candidate` is the reference: it re-fits
the optimised-theta forecaster on every prefix, once per grid theta.
:func:`estimate_theta` makes the same choice, up to losses that tie within
rounding, without a single re-fit. The theta line on the prefix of origin o
is ``theta*y + (1-theta)*(a_o + b_o*t)``, and SES and damped trend, seeds
included, are linear in their input for fixed parameters. A prefix
run is a truncation of a run over the whole series. So, for every parameter
grid point, the prefix's one-step errors and final states are
``theta*E(y) + (1-theta)*a_o*E(1) + (1-theta)*b_o*E(t)``, where ``E(x)`` is
the run on input x (superposition). ``E(1)`` makes no errors and ends at
level 1 and trend 0, so two runs, on y and on t, serve every (theta, origin)
pair. :func:`forecast_table` reads every pair's winner from one blocked
search and forecasts from it; at origin n that is the final otm forecast, so
the search that selects theta also yields the forecasts of the chosen theta.
Everything outside the search (the prefix lines, the score weights and the
forecasts) is computed as arrays over all origins at once, with a leading
origin axis, so a table's cost per origin is little beyond the recurrence's.
:func:`loss_rows` scores a table with the cost, which the search does not
depend on, once per origin for every schedule that scores it, and
:func:`select_theta` sums one schedule's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import sape
from .series import TimeSeries, TrendFit, prefix_trends, trend_value
from .smoothing import ForecasterSpec, _grid, _min_n, _sanitize, _search, damping
from .theta import SES, check_extrapolator, otm_forecast, recombine

DEFAULT_THETA_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
APPROACHES = ("a", "b", "c", "d", "e", "f", "g", "h")
MIN_FIRST_ORIGIN = 4

Candidate = Callable[[np.ndarray, int], np.ndarray]


class EvaluationError(RuntimeError):
    """A forecast candidate failed during rolling-origin evaluation."""


def se(a, b):
    """Squared error."""
    return (np.asarray(a, dtype=np.float64) - b) ** 2


def ae(a, b):
    """Absolute error."""
    return np.abs(np.asarray(a, dtype=np.float64) - b)


COST_FUNCTIONS = {"se": se, "ae": ae, "sape": sape}


def resolve_cost(cost) -> Callable:
    """The cost function named ``cost``; ``ValueError`` for an unknown name."""
    try:
        return COST_FUNCTIONS[cost]
    except KeyError:
        raise ValueError(
            f"unknown cost {cost!r}; expected one of {tuple(COST_FUNCTIONS)}"
        ) from None


@dataclass(frozen=True)
class GroeConfig:
    """Validation schedule: p origins, spaced m apart, H predictions each, first at n1."""

    p: int
    m: int
    H: int
    n1: int

    def __post_init__(self) -> None:
        for name in ("p", "m", "H", "n1"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value}")
            object.__setattr__(self, name, int(value))
        for name in ("p", "m", "H"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)}")
        if self.n1 < 2:
            raise ValueError(f"first origin must leave a fittable prefix (n1 >= 2), got {self.n1}")


def p_max(n: int, n1: int, m: int) -> int:
    """Maximum number of origin updates: 1 + floor((n - n1) / m)."""
    if not 1 < n1 < n:
        raise ValueError(f"need 1 < n1 < n, got n1={n1}, n={n}")
    if m < 1:
        raise ValueError(f"origin step m must be >= 1, got {m}")
    return 1 + (n - n1) // m


def origin_schedule(config: GroeConfig, n: int) -> list[int]:
    """Origins n1, n1+m, ..., n1+(p-1)m; the last may equal n (zero-length test window)."""
    limit = p_max(n, config.n1, config.m)
    if config.p > limit:
        raise ValueError(f"p={config.p} exceeds p_max={limit} for n={n}, n1={config.n1}, m={config.m}")
    return [config.n1 + i * config.m for i in range(config.p)]


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


def check_approach(approach: str) -> None:
    """Raise ``ValueError`` unless ``approach`` is one of the names in :data:`APPROACHES`."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}; expected one of {APPROACHES}")


def approach_config(approach: str, n: int, h: int) -> GroeConfig:
    """The standard GROE schedules (a)-(h) for a series of length n and horizon h.

    Approaches (a)-(d) validate on the last h observations (n1 = n - h) with
    p = 1, 2, 3, h origins; (e)-(h) mirror them from n1 = n - 2h with
    p = 2, 4, 6, h. In every case H = h, the first origin is clamped to at
    least ``MIN_FIRST_ORIGIN`` and p to min(p, p_max, h).
    """
    check_approach(approach)
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    if n <= h:
        raise ValueError(f"series too short for a training prefix: n={n} <= h={h}")
    half = math.ceil(h / 2)
    third = math.ceil(h / 3)
    table = {
        "a": (1, h, n - h),
        "b": (2, half, n - h),
        "c": (3, third, n - h),
        "d": (h, 1, n - h),
        "e": (2, h, n - 2 * h),
        "f": (4, half, n - 2 * h),
        "g": (6, third, n - 2 * h),
        "h": (h, 1, n - 2 * h),
    }
    p, m, n1 = table[approach]
    n1 = max(n1, MIN_FIRST_ORIGIN)
    if n1 >= n:
        raise ValueError(f"degenerate validation window: first origin {n1} >= n={n}")
    p = min(p, p_max(n, n1, m), h)
    return GroeConfig(p=p, m=m, H=h, n1=n1)


def otm_candidate(theta: float, extrapolator: ForecasterSpec = SES) -> Candidate:
    """A closure that re-fits the optimised-theta forecaster on each training prefix."""

    def candidate(prefix: np.ndarray, horizon: int) -> np.ndarray:
        return otm_forecast(TimeSeries("groe-prefix", prefix), theta, horizon, extrapolator)

    return candidate


def check_grid(grid) -> tuple[float, ...]:
    """``grid`` as a tuple of floats; ``ValueError`` unless it is non-empty,
    finite, at least 1 and strictly ascending."""
    values = tuple(float(v) for v in grid)
    if not values:
        raise ValueError("theta grid must be non-empty")
    if not all(math.isfinite(v) and v >= 1.0 for v in values):
        raise ValueError(f"theta grid values must be finite and >= 1, got {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"theta grid must be strictly ascending, got {values}")
    return values


def scored_origins(config: GroeConfig, n: int) -> list[int]:
    """The schedule's origins that leave at least one observation to score."""
    return [ni for ni in origin_schedule(config, n) if ni < n]


@np.errstate(over="ignore", invalid="ignore")  # _search and select_theta sanitise overflow
def forecast_table(
    series: TimeSeries, grid, origins, H: int, extrapolator: ForecasterSpec = SES
) -> dict[int, np.ndarray]:
    """``{origin: forecasts}``: row i of ``forecasts``, shape (len(grid), H),
    is what :func:`otm_candidate` of ``grid[i]`` forecasts from that origin,
    computed by superposition (see the module docstring); at origin n it is
    :func:`otm_forecast` up to rounding. Origins lie in [2, n], and one
    origin's rows depend neither on the others nor on a cost; the prefix
    lines, the score weights and the rows of every origin are each computed
    once as one array over all origins, bit-identical to one origin at a
    time. H must be at least 1. Candidates that cannot be fitted (a prefix
    too short for the extrapolator) raise :class:`EvaluationError`, and a
    theta line with no finite SSE at n at any grid point raises ``ValueError``.
    """
    values = check_grid(grid)
    check_extrapolator(extrapolator)
    if H < 1:
        raise ValueError(f"horizon must be >= 1, got {H}")
    family = extrapolator.family
    y = series.values
    n = series.n
    origins = sorted(set(origins))
    if not origins or origins[0] < 2 or origins[-1] > n:
        raise ValueError(f"origins must be non-empty and lie in [2, n] for n={n}, got {origins}")
    if origins[0] < _min_n(family):
        raise EvaluationError(
            f"series {series.id!r}: every theta candidate failed (family {family!r} needs "
            f"a prefix of n >= {_min_n(family)}, the first origin is {origins[0]})"
        )

    theta = np.array(values)[:, None]  # one row per grid theta
    # each origin's prefix line, in arrays of shape (origins, thetas, ...), and last the full line
    intercepts, slopes = prefix_trends(y, [*origins, n])
    prefix = TrendFit(intercepts[:-1, None, None], slopes[:-1, None, None])
    full = TrendFit(intercepts[-1], slopes[-1])
    t = np.arange(1.0, n + 1)
    # Run on the residuals about the full-series line, not on y: the line comes
    # back through the coefficients of 1 and t, and the quadratic form below
    # then does not cancel on strongly trended series.
    runs = np.stack([y - trend_value(full, t), t], axis=1)[:, :, None]
    # the prefix's theta line is theta*residual + c1*1 + c2*t, and its SSE
    # sum((theta*e_residual + c2*e_t)**2) a quadratic form in the runs' error products
    c1 = theta * full.intercept + (1.0 - theta) * prefix.intercept
    c2 = theta * full.slope + (1.0 - theta) * prefix.slope
    weights = np.concatenate(np.broadcast_arrays(theta * theta, theta * c2, theta * c2, c2 * c2), axis=2)
    found = _search(_grid(extrapolator), runs[:, None], {o: (range(1), w) for o, w in zip(origins, weights)})
    if (0, n) in found and not np.isfinite(found[0, n][0]).all():
        raise ValueError(
            f"series {series.id!r}: a theta line has no finite in-sample SSE at any "
            f"{family!r} grid point (the recursion overflows)"
        )
    _, params, level, trend, _ = zip(*(found[0, ni] for ni in origins))
    level = np.stack(level)
    line = theta * level[:, 0, :, None] + c1 + c2 * level[:, 1, :, None]
    if trend[0] is not None:
        trend = np.stack(trend)
        slope = theta * trend[:, 0, :, None] + c2 * trend[:, 1, :, None]
        line = line + damping(np.stack([p["phi"] for p in params]), H) * slope
    return dict(zip(origins, recombine(prefix, theta, np.array(origins)[:, None, None], line, H)))


@np.errstate(over="ignore", invalid="ignore")  # an overflowed loss is sanitised by select_theta
def loss_rows(series: TimeSeries, grid, table: dict[int, np.ndarray], origins, cost="se") -> dict:
    """``{origin: losses}``: each grid theta's cost of its ``table`` row (as
    made by :func:`forecast_table`) on the observations after the origin,
    summed over them. One cost call scores every origin whose window holds
    all H observations, and one more each origin whose window is shorter.
    Empty ``origins``, an origin missing from ``table`` and rows that are not
    one per grid theta are refused.
    """
    g = resolve_cost(cost)
    origins = sorted(origins)
    if not origins:
        raise ValueError("origins must be non-empty")
    for ni in origins:
        if ni not in table:
            raise ValueError(f"the forecast table has no rows for origin {ni}")
        if len(table[ni]) != len(grid):
            raise ValueError(
                f"the forecast table has {len(table[ni])} rows at origin {ni}, "
                f"not one per grid theta ({len(grid)})"
            )
    y, H = series.values, table[origins[0]].shape[1]
    full = [ni for ni in origins if ni + H <= series.n]
    rows = {}
    if full:
        windows = y[np.array(full)[:, None, None] + np.arange(H)]  # (origins, 1, H)
        rows.update(zip(full, g(windows, np.stack([table[ni] for ni in full])).sum(axis=-1)))
    for ni in origins[len(full):]:
        rows[ni] = g(y[ni:], table[ni][:, : series.n - ni]).sum(axis=1)
    return rows


@np.errstate(over="ignore", invalid="ignore")  # an overflowed loss is sanitised below
def select_theta(series: TimeSeries, grid, rows: dict[int, np.ndarray], origins) -> float:
    """The theta of ``grid`` with the least GROE loss: its :func:`loss_rows`
    ``rows`` (made over these origins and maybe more) summed over ``origins``
    in ascending order. The first minimum wins, so ties go to the smallest
    theta. A non-finite loss never wins, and an :class:`EvaluationError` is
    raised when no theta has a finite loss. Empty ``origins`` are refused.
    """
    if not origins:
        raise ValueError("origins must be non-empty")
    losses = np.zeros(len(grid))
    for ni in sorted(origins):
        losses += rows[ni]
    losses = _sanitize(losses)
    best = int(np.argmin(losses))
    if not np.isfinite(losses[best]):
        raise EvaluationError(f"series {series.id!r}: every theta candidate failed (no finite loss)")
    return float(grid[best])


def estimate_theta(
    series: TimeSeries,
    grid=DEFAULT_THETA_GRID,
    *,
    config: GroeConfig,
    cost="se",
    extrapolator: ForecasterSpec = SES,
) -> float:
    """Grid-search theta minimising the GROE loss of :func:`groe_loss` with
    :func:`otm_candidate`; ties go to the smallest theta. It is :func:`forecast_table`
    over the schedule's origins, then :func:`loss_rows` and :func:`select_theta`.
    """
    origins = scored_origins(config, series.n)
    table = forecast_table(series, grid, origins, config.H, extrapolator)
    return select_theta(series, grid, loss_rows(series, grid, table, origins, cost), origins)
