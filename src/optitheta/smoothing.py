"""Exponential-smoothing and naive forecast engines.

The benchmark families are one recursion with optional components, run in
the error-correction form of the exponential-smoothing state-space view
(Hyndman, Koehler, Ord & Snyder, 2008). With level l, trend b, damping phi
and multiplicative seasonal factors s of period m, each observation y_t is
predicted as ``(l + phi*b) * s_t``, and its one-step error e corrects the
state:

    b <- phi*b
    l <- l + b                        (the prediction, before the season)
    e  = y_t - l*s_t
    l <- l + alpha * e/s_t
    b <- b + (alpha*beta) * e/s_t
    s_t <- s_t + gamma * (y_t/l - s_t)

This is the component form ``l' = alpha*y_t/s_t + (1-alpha)*(l + phi*b)``,
``b' = beta*(l' - l) + (1-beta)*phi*b``, ``s_t' = gamma*y_t/l' +
(1-gamma)*s_t`` rearranged, so the two differ by rounding only. SES has no
trend and no season, Holt has phi = 1 (its recursion skips the damping
multiply), damped trend searches phi, and holt_winters/seasonal_damped add
the season to Holt/damped. One table, ``_PARAMS``, names the parameters
each family searches, in grid order; the grid, the least series length and
the fitted parameters all follow from it. :func:`_recurrence` runs this
recursion at every point of a parameter grid at once, and a fit keeps the
grid point with the least in-sample one-step squared error, ties going to
the lexicographically smallest parameter vector. naive and naive2 (naive on
the seasonally adjusted series) have no parameters; their SSE is computed
in one vectorised pass.

The damped and seasonal-damped grids hold 193,819 and 175,959 points. The
recursion updates its states in place, with ``alpha*beta`` formed once per
run and preallocated scratch arrays, so none of its steps allocates. A
damped step makes 9 numpy passes (7 in the recursion, 2 to add ``e*e`` to
the SSE) and a seasonal-damped step 15, over at most 12 arrays. At full grid
size (1.4 MB each) that working set still spills out of a 2 MB per-core L2
cache, so a search (:func:`_search`, for fits and GROE loss tables) runs the
flattened grid in consecutive blocks of ``_BLOCK`` points and keeps one
running best across them, which only a strictly smaller block minimum
replaces; the winner and its state are bit-identical to one whole-grid run.
The block size came from a sweep of holt, holt_winters, damped and
seasonal_damped fits on 17 synthetic series (2-core Xeon, best of 3 CPU
times, two sweeps), as speed against the whole-grid search: 2,048 points
1.18/1.44x, 4,096 1.22/1.81x, 8,192 1.70/2.08x, 16,384 1.75/2.17x, 32,768
1.41/1.93x. 8,192 points (64 KB per array, under 1 MB per step) sits on the
plateau with 16,384, which the sweep's noise does not separate from it.

A fit whose grid spans more than one block also abandons grid points early
(the bound of Rakthanmanon et al., KDD 2012). A point's in-sample SSE is a
running sum of non-negative terms, and a rounded sum of them never falls,
so a point whose partial SSE already exceeds the full SSE of some grid
point can never win. The first bound is the least sanitised SSE that a
search of every ``_STRIDE``-th grid point finds (about 1% of the grid, one
block, so not pruned itself); each block that finishes lowers it to the
running best. Every ``_CHECK`` steps a block counts the points whose
partial SSE is strictly ``>`` the bound; once they are at least
``1/_COMPACT`` of its live points, it sends the indices of the others to
:func:`_recurrence`, which keeps only those, and it abandons the block when
none is left. The winner and every point tied with it have partial SSE <=
final SSE <= bound, so they always survive; a NaN compares false and is
never dropped (it still never wins), and a point that overflowed to inf is
dropped once the bound is finite. Each survivor's arithmetic is elementwise
and unchanged, so the fit is bit-identical to the unpruned search. GROE
loss tables (whose scores are quadratic forms of several inputs' errors,
which may fall) and one-block grids (SES's, and small pinned ones) get an
infinite bound and are never checked. About 60% of the damped and
seasonal-damped updates survive. A sweep of the check interval and the
compaction threshold on the damped and seasonal-damped fits of 17 synthetic
series (2-core Xeon, best of 3 CPU times, speed against the unpruned
search, damped/seasonal-damped): every 4 steps at 1/2, 1/4 and 1/8 of the
live points 1.35/1.34x, 1.25/1.25x, 1.21/1.21x; every 8 steps 1.40/1.37x,
1.35/1.37x, 1.27/1.20x; every 16 steps 1.30/1.35x, 1.36/1.27x, 1.40/1.35x;
every 32 steps 1.33/1.26x, 1.32/1.33x, 1.45/1.30x. The surface is a plateau
within the sweep's noise, and 8 steps at 1/4 sit on it.

A fit is summarised by a :class:`FittedForecaster`: the family, the chosen
parameters and the final state (level, trend, seasonal factors). Every
family forecasts k steps ahead with one formula,
``(level + damping(k) * trend) * season[(n + k - 1) % m]``.

Seasonal-capable families follow the seasonality test, or the decision a
caller already made (see :func:`fit`), and silently fall back to their
non-seasonal sibling when it fails, so ``holt_winters`` on a period-1 series
is exactly Holt and ``naive2`` on non-seasonal data is exactly the naive
random walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .seasonal import seasonal_indices, seasonality_applies
from .series import TimeSeries

# each family's searched parameters, in grid order
_PARAMS = {
    "naive": (),
    "naive2": (),
    "ses": ("alpha",),
    "holt": ("alpha", "beta"),
    "holt_winters": ("alpha", "beta", "gamma"),
    "damped": ("alpha", "beta", "phi"),
    "seasonal_damped": ("alpha", "beta", "gamma", "phi"),
}
FAMILIES = tuple(_PARAMS)
# each seasonal family's fallback when its series is not seasonal
_SIBLING = {"naive2": "naive", "holt_winters": "holt", "seasonal_damped": "damped"}
SEASONAL = frozenset(_SIBLING)

PHI_MIN, PHI_MAX = 0.80, 0.98

_WEIGHT_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
_PHI_GRID = np.round(np.arange(PHI_MIN, PHI_MAX + 1e-9, 0.01), 2)
# A 0.01 grid on three or four weights is 1e6+ combinations per fit; the
# seasonal families search a coarser weight grid instead.
_SEASONAL_WEIGHT_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2)
# grid points per _recurrence run in a search; see the module docstring
_BLOCK = 8192
_SSE = np.ones((1, 1))  # a fit's weight matrix: a grid point's score is its SSE
# early abandoning in a fit's search; see the module docstring
_STRIDE = 97  # every _STRIDE-th grid point gives the first bound
_CHECK = 8  # steps between two pruning checks
_COMPACT = 4  # compact once 1/_COMPACT of the live points are over the bound
# fit's default for ``indices``: the series' seasonality is not decided yet
_UNTESTED = object()


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
    """Frozen result of a fit: family, chosen parameters, final state, minimum SSE.

    ``trend`` is 0.0 for the untrended families and ``season`` holds the
    final seasonal factors (None without a season). ``params`` holds the
    chosen value of each key of ``family_used``'s :func:`_grid` (none for naive).
    """

    family_used: str
    n: int
    sse: float
    level: float
    trend: float = 0.0
    season: np.ndarray | None = None
    params: dict[str, float] = field(default_factory=dict)

    @property
    def seasonal(self) -> bool:
        return self.season is not None


def _sanitize(sse: np.ndarray) -> np.ndarray:
    # degenerate parameter combinations can overflow; never let them win
    return np.where(np.isfinite(sse), sse, np.inf)


def _grid(spec: ForecasterSpec, family: str) -> dict[str, np.ndarray]:
    """The flattened search grid of a smoothing fit, one named dimension per parameter.

    Keys are the family's ``_PARAMS``, in the order of an ``indexing="ij"``
    meshgrid, so the flat index runs through the parameter vectors
    lexicographically. A family lacks the keys of the parameters it does not
    have (Holt's recursion then skips the damping multiply), and a pinned
    parameter is a one-point dimension.
    """
    weights = _SEASONAL_WEIGHT_GRID if family in SEASONAL else _WEIGHT_GRID
    dims = {k: _PHI_GRID if k == "phi" else weights for k in _PARAMS[family]}
    dims = {k: v if getattr(spec, k) is None else np.array([float(getattr(spec, k))])
            for k, v in dims.items()}
    # each value repeats once per point of the later dimensions, and that run
    # once per point of the earlier ones
    size = math.prod(v.size for v in dims.values())
    grid, inner = {}, size
    for k, v in dims.items():
        inner //= v.size
        grid[k] = np.tile(v.repeat(inner), size // (inner * v.size))
    return grid


def _min_n(family: str) -> int:
    return 3 if "beta" in _PARAMS[family] else 2


def _recurrence(y: np.ndarray, alpha: np.ndarray, beta=None, phi=None, gamma=None, season=None):
    """Run the smoothing recursion over ``y`` at every grid point at once.

    ``beta`` None runs SES; otherwise ``phi`` damps the trend (None for
    Holt, which skips the multiply by phi). ``gamma`` with the initial
    factors ``season`` (one per period position) adds a multiplicative
    season, kept row-major with shape (period, grid size) so that each step
    touches one contiguous row.

    Yields ``(e, level, trend, season)`` after each of y_2..y_n: the one-step
    errors of that observation and the states after it (``trend`` and
    ``season`` are None when absent). Every step updates these arrays in
    place, so a consumer reads them before asking for the next step. The
    first observation seeds the level and, for the trended families, y_2 - y_1
    seeds the trend; the prediction of y_2 is then fully determined by the
    seeds, so its error is None. Without a season ``y`` may carry trailing
    axes, e.g. shape (n, k, 1) runs k inputs side by side; every state then
    has shape (k, grid size).

    Between two steps a consumer may ``send`` the indices of the grid points
    it still wants, in ascending order: the recursion keeps only those
    points, in that order, answers the ``send`` with None and yields the
    shorter states from its next step on.

    Without a season the recursion is linear in ``y`` for fixed parameters,
    which ``groe.loss_table`` relies on.
    """
    shape = np.broadcast_shapes(np.shape(y[0]), alpha.shape)
    level = np.full(shape, y[0])
    trend = None if beta is None else np.full(shape, y[1] - y[0])
    alpha_beta = None if beta is None else alpha * beta
    e = np.empty(shape)
    scaled = e if season is None else np.empty(shape)  # e / s
    step = np.empty(shape)  # each state's correction in turn
    if season is not None:
        period = season.size
        season = np.repeat(season[:, None], alpha.size, axis=1)
    for t in range(1, len(y)):
        if trend is not None:
            if phi is not None:
                trend *= phi
            level += trend  # the prediction, l + phi*b
        if season is None:
            np.subtract(y[t], level, out=e)
        else:
            s = season[t % period]
            np.multiply(level, s, out=scaled)
            np.subtract(y[t], scaled, out=e)
            np.divide(e, s, out=scaled)
        level += np.multiply(alpha, scaled, out=step)
        if trend is not None:
            trend += np.multiply(alpha_beta, scaled, out=step)
        if season is not None:
            np.divide(y[t], level, out=step)
            step -= s
            step *= gamma
            s += step
        keep = yield None if trend is not None and t < 2 else e, level, trend, season
        if keep is not None:
            alpha, alpha_beta, phi, gamma, level, trend, season = (
                a if a is None else a[..., keep]
                for a in (alpha, alpha_beta, phi, gamma, level, trend, season)
            )
            e, step = np.empty(level.shape), np.empty(level.shape)
            scaled = e if season is None else np.empty(level.shape)
            yield


def _fit_naive(series: TimeSeries, season) -> FittedForecaster:
    # the random walk (on the seasonally adjusted series for naive2) has no
    # parameters, so its SSE needs no recursion
    y = series.values
    if season is None:
        sse = float(np.sum(np.diff(y) ** 2))
        return FittedForecaster("naive", series.n, sse, level=float(y[-1]))
    factors = season[np.arange(y.size) % season.size]
    adjusted = y / factors
    sse = float(np.sum((y[1:] - adjusted[:-1] * factors[1:]) ** 2))
    return FittedForecaster("naive2", series.n, sse, level=float(adjusted[-1]), season=season)


def _search(grid: dict[str, np.ndarray], runs: np.ndarray, weights: dict, season=None):
    """Search the flattened ``grid`` (see :func:`_grid`) on ``runs``, ``_BLOCK`` points at a time.

    ``runs`` is one input, shape (n,), or k inputs side by side, shape
    (n, k, 1) and no season; a block sums their one-step error products, e*e
    or e_a*e_b in row a*k + b. ``weights`` maps a prefix length t to a
    (rows, k*k) matrix, and after y_t each row w scores every grid point by
    ``w @ products``; one input's matrix is ``_SSE``, so its score is its
    SSE. A row's winner, with a copy of its state, is the first least
    sanitised score: a later block replaces it only on a strict ``<``.
    A search of one input with one checkpoint on a grid wider than one block
    drops the points that can no longer win, its first bound being this
    search on every ``_STRIDE``-th grid point (see the module docstring).
    Returns ``{t: (score, params, level, trend, season)}``, rows last.
    """
    products = np.square if runs.ndim == 1 else lambda e: e[:, None] * e
    last = max(weights)
    # a single run's score is its running SSE, which never falls
    prune = runs.ndim == 1 and len(weights) == 1 and grid["alpha"].size > _BLOCK
    # prefix lengths at which a block stops: the checkpoints, and a pruned
    # search's checks before its one checkpoint
    stops = [*range(_CHECK, last, _CHECK), last] if prune else sorted(weights)
    best = {}
    with np.errstate(all="ignore"):
        bound = np.inf
        if prune:  # every grid's strided sample fits in one block, so it is not pruned
            sample = {k: v[::_STRIDE] for k, v in grid.items()}
            bound = _search(sample, runs, weights, season)[last][0][0]
        for start in range(0, grid["alpha"].size, _BLOCK):
            block = {k: v[start : start + _BLOCK] for k, v in grid.items()}
            live = np.arange(block["alpha"].size)  # the block indices still searched
            steps = _recurrence(runs, season=season, **block)
            sums, done = 0.0, 1
            for t in stops:
                for e, level, trend, factors in islice(steps, t - done):
                    if e is not None:
                        sums += products(e)
                done = t
                if t not in weights:  # a pruning check
                    over = sums > bound
                    dropped = np.count_nonzero(over)
                    if dropped == over.size:
                        break  # no point of this block can win
                    if dropped * _COMPACT >= over.size:
                        keep = np.flatnonzero(~over)
                        steps.send(keep)
                        sums, live = sums[keep], live[keep]
                    continue
                w = weights[t]
                scores = _sanitize(w @ sums.reshape(w.shape[1], -1))
                i = scores.argmin(axis=1)
                state = (level, trend, factors)
                won = [scores.min(axis=1), *(a if a is None else a.take(i, -1) for a in state)]
                won += [v.take(live.take(i)) for v in block.values()]
                if t in best:
                    better = won[0] < best[t][0]
                    won = [a if a is None else np.where(better, a, b) for a, b in zip(won, best[t])]
                best[t] = won
            if prune and best:
                bound = min(bound, best[last][0][0])
    return {t: (s, dict(zip(grid, p)), lev, tr, f) for t, (s, lev, tr, f, *p) in best.items()}


def _fit_smooth(spec: ForecasterSpec, series: TimeSeries, family: str, season) -> FittedForecaster:
    """The grid point of ``family`` with the least in-sample SSE (see :func:`_search`)."""
    found = _search(_grid(spec, family), series.values, {series.n: _SSE}, season)
    (sse,), params, level, trend, factors = found[series.n]
    if sse == np.inf:
        raise ValueError(
            f"series {series.id!r}: family {family!r} has no finite in-sample SSE "
            "at any grid point (the recursion overflows)"
        )
    return FittedForecaster(
        family, series.n, float(sse), float(level[0]), 0.0 if trend is None else float(trend[0]),
        None if factors is None else factors[:, 0], {k: float(v[0]) for k, v in params.items()},
    )


def fit(spec: ForecasterSpec, series: TimeSeries, *, indices=_UNTESTED) -> FittedForecaster:
    """Fit a forecast family to a series.

    ``indices`` is the series' seasonality decision when it is already made:
    its :class:`SeasonalIndices`, or None when it is not seasonal. Without
    it the seasonal families test the series themselves; the other families
    never read it.

    Degenerate inputs (e.g. constant series) are not errors: the grid search
    simply returns its best point, which yields flat forecasts. A series on
    which the recursion overflows at every grid point raises ``ValueError``.
    """
    family = spec.family
    if family in SEASONAL and indices is _UNTESTED:
        indices = seasonal_indices(series) if seasonality_applies(series) else None
    seasonal = family in SEASONAL and indices is not None
    effective = _SIBLING[family] if family in SEASONAL and not seasonal else family
    min_n = _min_n(effective)
    if series.n < min_n:
        raise ValueError(
            f"series {series.id!r}: family {family!r} needs n >= {min_n}, got n={series.n}"
        )
    season = indices.indices if seasonal else None
    if not _PARAMS[effective]:
        return _fit_naive(series, season)
    return _fit_smooth(spec, series, effective, season)


def forecast(fitted: FittedForecaster, h: int) -> np.ndarray:
    """Point forecasts for steps 1..h from the fitted final state."""
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    k = np.arange(1, h + 1)
    damping = np.cumsum(fitted.params.get("phi", 1.0) ** k)
    out = fitted.level + damping * fitted.trend
    if fitted.season is not None:
        out = out * fitted.season[(fitted.n + k - 1) % fitted.season.size]
    return out
