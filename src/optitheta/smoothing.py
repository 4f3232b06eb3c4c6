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
the season to Holt/damped. :func:`_recurrence` runs this recursion at every
point of a parameter grid at once, and a fit keeps the grid point with the
least in-sample one-step squared error, ties going to the lexicographically
smallest parameter vector. naive and naive2 (naive on the seasonally
adjusted series) have no parameters; their SSE is computed in one
vectorised pass.

The damped and seasonal-damped grids hold 193,819 and 175,959 points. The
recursion updates its states in place, with ``alpha*beta`` formed once per
run and preallocated scratch arrays, so none of its steps allocates. A
damped step makes 9 numpy passes (7 in the recursion, 2 to add ``e*e`` to
the SSE) and a seasonal-damped step 15, over at most 12 arrays. At full grid size (1.4 MB
each) that working set still spills out of a 2 MB per-core L2 cache, so a
fit searches the flattened grid in consecutive blocks of ``_BLOCK`` points
and keeps the final state of each block's best point only; the winner and
its state are bit-identical to one whole-grid run. The block size came from
a sweep of holt, holt_winters, damped and seasonal_damped fits on 17
synthetic series (2-core Xeon, best of 3 CPU times, two sweeps), as speed
against the whole-grid search: 2,048 points 1.18/1.44x, 4,096 1.22/1.81x,
8,192 1.70/2.08x, 16,384 1.75/2.17x, 32,768 1.41/1.93x. 8,192 points (64 KB
per array, under 1 MB per step) sits on the plateau with 16,384, which the
sweep's noise does not separate from it.

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

from dataclasses import dataclass

import numpy as np

from .seasonal import seasonal_indices, seasonality_applies
from .series import TimeSeries

FAMILIES = ("naive", "naive2", "ses", "holt", "holt_winters", "damped", "seasonal_damped")

_TRENDED = frozenset({"holt", "damped", "holt_winters", "seasonal_damped"})
_DAMPED = frozenset({"damped", "seasonal_damped"})
_SEASONAL = frozenset({"naive2", "holt_winters", "seasonal_damped"})
_SIBLING = {"naive2": "naive", "holt_winters": "holt", "seasonal_damped": "damped"}

PHI_MIN, PHI_MAX = 0.80, 0.98

_WEIGHT_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
_PHI_GRID = np.round(np.arange(PHI_MIN, PHI_MAX + 1e-9, 0.01), 2)
# A 0.01 grid on three or four weights is 1e6+ combinations per fit; the
# seasonal families search a coarser weight grid instead.
_SEASONAL_WEIGHT_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2)
# grid points per _recurrence run in a fit; see the module docstring
_BLOCK = 8192
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
    final seasonal factors (None without a season). A parameter the family
    used does not have is None.
    """

    family_used: str
    n: int
    sse: float
    level: float
    trend: float = 0.0
    season: np.ndarray | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    phi: float | None = None

    @property
    def seasonal(self) -> bool:
        return self.season is not None


def _pinned_or(grid: np.ndarray, pinned: float | None) -> np.ndarray:
    return grid if pinned is None else np.array([float(pinned)])


def _sanitize(sse: np.ndarray) -> np.ndarray:
    # degenerate parameter combinations can overflow; never let them win
    return np.where(np.isfinite(sse), sse, np.inf)


def _grid(spec: ForecasterSpec, family: str):
    """The flattened (alpha, beta, gamma, phi) search grid of a smoothing fit.

    ``beta`` is None for ses, ``gamma`` is None for the non-seasonal
    families and ``phi`` is None for the undamped ones (ses, holt,
    holt_winters), whose recursion then skips the damping multiply.
    """
    seasonal = family in _SEASONAL
    weights = _SEASONAL_WEIGHT_GRID if seasonal else _WEIGHT_GRID
    alphas = _pinned_or(weights, spec.alpha)
    if family == "ses":
        return alphas, None, None, None
    dims = [alphas, _pinned_or(weights, spec.beta)]
    if seasonal:
        dims.append(_pinned_or(weights, spec.gamma))
    if family in _DAMPED:
        dims.append(_pinned_or(_PHI_GRID, spec.phi))
    grids = [g.ravel() for g in np.meshgrid(*dims, indexing="ij")]
    gamma = grids.pop(2) if seasonal else None
    phi = grids.pop() if family in _DAMPED else None
    return grids[0], grids[1], gamma, phi


def _min_n(family: str) -> int:
    return 3 if family in _TRENDED else 2


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
        yield None if trend is not None and t < 2 else e, level, trend, season


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


def _fit_smooth(spec: ForecasterSpec, series: TimeSeries, family: str, season) -> FittedForecaster:
    """Grid-search one smoothing family, ``_BLOCK`` grid points at a time.

    Each block runs :func:`_recurrence` on its slice of the flattened grid,
    writes its slice of the SSE vector and, once the run ends, copies out the
    final state of its own best point only (the run updates its state arrays
    in place and holds no other copy). The winner is the first minimum of the
    whole SSE vector, which lies in the block whose best point it is, so the
    result equals one whole-grid run bit for bit.
    """
    alpha, beta, gamma, phi = _grid(spec, family)
    cut = lambda grid, block: None if grid is None else grid[block]  # noqa: E731
    sse = np.zeros(alpha.size)
    block_best = []  # (level, trend, season) at each block's best point
    with np.errstate(all="ignore"):
        for start in range(0, alpha.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            block_sse = sse[block]
            for e, level, trend, factors in _recurrence(
                series.values, alpha[block], cut(beta, block), cut(phi, block),
                cut(gamma, block), season,
            ):
                if e is not None:
                    block_sse += e * e
            i = int(np.argmin(_sanitize(block_sse)))
            block_best.append((
                float(level[i]),
                0.0 if trend is None else float(trend[i]),
                None if factors is None else factors[:, i].copy(),
            ))
    sse = _sanitize(sse)
    best = int(np.argmin(sse))
    if not np.isfinite(sse[best]):
        raise ValueError(
            f"series {series.id!r}: family {family!r} has no finite in-sample SSE "
            "at any grid point (the recursion overflows)"
        )
    level, trend, factors = block_best[best // _BLOCK]
    param = lambda grid: None if grid is None else float(grid[best])  # noqa: E731
    return FittedForecaster(
        family_used=family,
        n=series.n,
        sse=float(sse[best]),
        level=level,
        trend=trend,
        season=factors,
        alpha=param(alpha),
        beta=param(beta),
        gamma=param(gamma),
        phi=param(phi),
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
    if family in _SEASONAL and indices is _UNTESTED:
        indices = seasonal_indices(series) if seasonality_applies(series) else None
    seasonal = family in _SEASONAL and indices is not None
    effective = _SIBLING[family] if family in _SEASONAL and not seasonal else family
    min_n = _min_n(effective)
    if series.n < min_n:
        raise ValueError(
            f"series {series.id!r}: family {family!r} needs n >= {min_n}, got n={series.n}"
        )
    season = indices.indices if seasonal else None
    if effective in ("naive", "naive2"):
        return _fit_naive(series, season)
    return _fit_smooth(spec, series, effective, season)


def forecast(fitted: FittedForecaster, h: int) -> np.ndarray:
    """Point forecasts for steps 1..h from the fitted final state."""
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    k = np.arange(1, h + 1)
    damping = k if fitted.phi is None else np.cumsum(fitted.phi ** k)
    out = fitted.level + damping * fitted.trend
    if fitted.season is not None:
        out = out * fitted.season[(fitted.n + k - 1) % fitted.season.size]
    return out
