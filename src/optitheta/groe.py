"""Generalised rolling-origin evaluation and theta selection.

A GROE schedule places p forecast origins n1, n1+m, ..., n1+(p-1)m inside a
series; at each origin the candidate is fitted to the prefix and scored on
up to H subsequent observations with a symmetric cost. Fixed-origin
evaluation (p = 1), rolling-origin evaluation (m = 1, H >= n - n1) and the
in-sample one-step loss (n1 = 2, m = H = 1) are all special cases. The
theta coefficient is selected by brute force over a small grid.

The paper's loss re-fits the optimised-theta forecaster on every prefix,
once per grid theta; the tests keep that re-fit as their oracle.
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

:func:`forecast_tables` makes one ``smoothing._search`` for all its
members (a runner task's tables), which packs up to 40 SES tables into one
recurrence by the rule of the ``smoothing`` module docstring: members with
one schedule share a pack. A table's schedule there is how far back from n
each of its origins lies, so the tables of one h share one unless a first
origin is clamped to ``MIN_FIRST_ORIGIN``. A damped table runs alone. (A
member's t-run is padded with its own first value, so the members of a pack
cannot share one.)

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
from .theta import SES, check_extrapolator, recombine

DEFAULT_THETA_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
APPROACHES = ("a", "b", "c", "d", "e", "f", "g", "h")
MIN_FIRST_ORIGIN = 4


class EvaluationError(RuntimeError):
    """No theta candidate could be evaluated: a prefix too short to fit, or no finite loss."""


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


def forecast_table(
    series: TimeSeries, grid, origins, H: int, extrapolator: ForecasterSpec = SES
) -> dict[int, np.ndarray]:
    """``{origin: forecasts}``: row i of ``forecasts``, shape (len(grid), H),
    is what theta ``grid[i]``'s forecaster, re-fitted on the prefix, forecasts
    from that origin, computed by superposition (see the module docstring); at
    origin n it is :func:`otm_forecast` up to rounding. Origins lie in [2, n],
    and one origin's rows depend neither on the others nor on a cost; the prefix
    lines, the score weights and the rows of every origin are each computed
    once as one array over all origins, bit-identical to one origin at a
    time. H must be at least 1. Candidates that cannot be fitted (a prefix
    too short for the extrapolator) raise :class:`EvaluationError`, and a
    theta line with no finite SSE at n at any grid point raises ``ValueError``.
    It is :func:`forecast_tables` of the one member.
    """
    (table,) = forecast_tables([(series, origins, H)], grid, extrapolator)
    if isinstance(table, Exception):
        raise table
    return table


def _prepare(series: TimeSeries, origins, H: int, theta: np.ndarray, family: str):
    """A member of :func:`forecast_tables`: its ``smoothing._search`` member (two
    runs, shape (n, 2), its sorted origins and their weight matrices), and the
    function that makes its table from its origins' winners (score, level,
    trend, phi, origins first)."""
    if H < 1:
        raise ValueError(f"horizon must be >= 1, got {H}")
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
    # each origin's prefix line, in arrays of shape (origins, thetas, ...), and last the full line
    intercepts, slopes = prefix_trends(y, [*origins, n])
    prefix = TrendFit(intercepts[:-1, None, None], slopes[:-1, None, None])
    full = TrendFit(intercepts[-1], slopes[-1])
    t = np.arange(1.0, n + 1)
    # Run on the residuals about the full-series line, not on y: the line comes
    # back through the coefficients of 1 and t, and the quadratic form below
    # then does not cancel on strongly trended series.
    run = np.stack([y - trend_value(full, t), t], axis=1)
    # the prefix's theta line is theta*residual + c1*1 + c2*t, and its SSE
    # sum((theta*e_residual + c2*e_t)**2) a quadratic form in the runs' error products
    c1 = theta * full.intercept + (1.0 - theta) * prefix.intercept
    c2 = theta * full.slope + (1.0 - theta) * prefix.slope
    weights = np.concatenate(np.broadcast_arrays(theta * theta, theta * c2, theta * c2, c2 * c2), axis=2)

    def finish(score, level, trend, phi) -> dict[int, np.ndarray]:
        if origins[-1] == n and not np.isfinite(score[-1]).all():
            raise ValueError(
                f"series {series.id!r}: a theta line has no finite in-sample SSE at any "
                f"{family!r} grid point (the recursion overflows)"
            )
        line = theta * level[..., :1] + c1 + c2 * level[..., 1:]
        if trend is not None:
            slope = theta * trend[..., :1] + c2 * trend[..., 1:]
            line = line + damping(phi, H) * slope
        return dict(zip(origins, recombine(prefix, theta, np.array(origins)[:, None, None], line, H)))

    return run, origins, weights, finish


@np.errstate(over="ignore", invalid="ignore")  # _search and select_theta sanitise overflow
def forecast_tables(members, grid, extrapolator: ForecasterSpec = SES) -> list:
    """The :func:`forecast_table` of each member ``(series, origins, H)``, or the
    exception that fails it, which leaves the other members' tables alone.
    Every member's runs join one search, packed by the rule of the
    ``smoothing`` module docstring; each table is bit-identical to a search
    of it alone.
    """
    values = check_grid(grid)
    check_extrapolator(extrapolator)
    theta = np.array(values)[:, None]  # one row per grid theta
    out, ready = [], []  # ready: (index, (run, origins, weights, finish)) of each prepared member
    for series, origins, H in members:
        try:
            ready.append((len(out), _prepare(series, origins, H, theta, extrapolator.family)))
            out.append(None)
        except Exception as exc:
            out.append(exc)
    found = _search(_grid(extrapolator), [member[:3] for _, member in ready])
    for (j, (*_, finish)), (score, params, level, trend, *_) in zip(ready, found):
        try:
            out[j] = finish(score, level, trend, params.get("phi"))
        except Exception as exc:
            out[j] = exc
    return out


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
    """Grid-search theta minimising the GROE loss of the optimised-theta forecaster
    re-fitted on each prefix; ties go to the smallest theta. It is :func:`forecast_table`
    over the schedule's origins, then :func:`loss_rows` and :func:`select_theta`.
    """
    origins = scored_origins(config, series.n)
    table = forecast_table(series, grid, origins, config.H, extrapolator)
    return select_theta(series, grid, loss_rows(series, grid, table, origins, cost), origins)
