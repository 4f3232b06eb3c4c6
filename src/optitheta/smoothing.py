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
cache, so a search (:func:`_search`, for fits and GROE forecast tables) runs the
flattened grid in consecutive blocks of ``_BLOCK`` points and keeps one
running best across them, which only a strictly smaller block minimum
replaces; the winner and its state are bit-identical to one whole-grid run.
The block size came from a sweep of holt, holt_winters, damped and
seasonal_damped fits on 17 synthetic series (2-core Xeon, best of 3 CPU
times, two sweeps), as speed against the whole-grid search: 2,048 points
1.18/1.44x, 4,096 1.22/1.81x, 8,192 1.70/2.08x, 16,384 1.75/2.17x, 32,768
1.41/1.93x. 8,192 points (64 KB per array, under 1 MB per step) sits on the
plateau with 16,384, which the sweep's noise does not separate from it.

A search also runs several members (series, or prefixes of one) side by
side on a leading member axis: runs of shape (n, members, inputs, 1),
left-aligned with padding after each member's end, each member scored at
its own checkpoints (its n, for a fit). The recursion is elementwise, so a
member's result is bit-identical to a search of it alone. :func:`fit_all`
packs ``_BLOCK // grid size`` series of a family without a season into one
search, shortest first: 81 for SES, whose 101-point steps are otherwise
mostly numpy call overhead. Larger and seasonal grids keep one series per
search, and a one-series fit or a GROE forecast table is one member.

A fit whose grid spans more than one block (holt, holt_winters, damped,
seasonal_damped) screens it first (:func:`_screen`): it scales y by the power
of two that puts max|y| in [0.5, 1), to which every family is bit-exactly
equivariant, sweeps the grid in float32, where a numpy pass costs about half
as much, and keeps the points whose SSE is at most its best times ``1 +
_MARGIN``. The float64 search runs only those, in grid order, so it finds the
whole-grid winner and state whenever that point is kept. Below a best SSE of
``_FLOOR * n`` (an RMS error of 2**-12 of max|y|) float32 rounding can reorder
the best points, so the float32 sweep stops once its bound is under it, and
such a series, or one with no finite float32 SSE, is swept again in float64
with margin 0, which keeps exactly the winner and its ties.

A sweep (:func:`_sweep`) abandons grid points early (the bound of Rakthanmanon
et al., KDD 2012). A point's in-sample SSE is a running sum of non-negative
terms, and a rounded sum of them never falls, so a point whose partial SSE
already exceeds the bound times ``1 + margin`` can never come within the
margin of the best. When the grid spans more than one block, the first bound
is the least sanitised SSE of every ``_STRIDE``-th grid point (about 1% of the
grid, one block, run first under an infinite bound); each block that finishes
lowers it to the running best. A grid that fits one block (holt's and
holt_winters' in float32) skips the sample and runs that block under an
infinite bound: there the sample cost more than the pruning it allowed saved
(per-fit CPU on 14 bench corpus series, medians of 12 best-of-5 rounds on a
2-core Xeon: holt 2.82 -> 2.19 ms, holt_winters 5.63 -> 3.76 ms). The kept
points are the same either way, since each point's SSE is computed
elementwise and, as below, no bound drops a point within the final margin.
A float32 block holds ``2 * _BLOCK`` points, a float64 block's bytes. Every
``_CHECK`` steps a block counts the points whose partial SSE is strictly ``>``
the limit; once they are at least ``1/_COMPACT`` of its live points, it sends
the indices of the others to :func:`_recurrence`, which keeps only those, and
it abandons the block when none is left. A point within the margin of the
final best, ties included, has partial SSE <= final SSE <= limit, so it always
survives; a NaN compares false and is never dropped (nor wins), and an
overflowed inf is dropped once the bound is finite. Every 8 steps at 1/4 sat
on the plateau of a sweep of the check interval and threshold on float64 fits.

A fit is summarised by a :class:`FittedForecaster`: the family, the chosen
parameters and the final state (level, trend, seasonal factors). Every
family forecasts k steps ahead with one formula,
``(level + damping(phi, h)[k-1] * trend) * season[(n + k - 1) % m]``, where
:func:`damping` gives the trend multiples ``phi + ... + phi**k`` (k at phi = 1).

Seasonal-capable families follow the seasonality test, or the decision a
caller already made (see :func:`effective_family`), and silently fall back to
their non-seasonal sibling when it fails, so ``holt_winters`` on a period-1
series is exactly Holt and ``naive2`` on non-seasonal data is exactly the
naive random walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

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
# early abandoning in a sweep of a fit's grid; see the module docstring
_STRIDE = 97  # every _STRIDE-th grid point gives the first bound
_CHECK = 8  # steps between two pruning checks
_COMPACT = 4  # compact once 1/_COMPACT of the live points are over the bound
# the float32 screen's relative margin and its floor on SSE / n; see the module docstring
_MARGIN = 2.0**-10
_FLOOR = 2.0**-24


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


def _grid(spec: ForecasterSpec) -> dict[str, np.ndarray]:
    """The flattened search grid of a smoothing fit, one named dimension per parameter.

    Keys are the family's ``_PARAMS`` and values their raveled
    ``indexing="ij"`` meshgrid, so the flat index runs through the parameter
    vectors lexicographically. A family lacks the keys of the parameters it
    does not have (Holt's recursion then skips the damping multiply), and a
    pinned parameter is a one-point dimension.
    """
    weights = _SEASONAL_WEIGHT_GRID if spec.family in SEASONAL else _WEIGHT_GRID
    dims = {k: _PHI_GRID if k == "phi" else weights for k in _PARAMS[spec.family]}
    dims = {k: v if getattr(spec, k) is None else np.array([float(getattr(spec, k))])
            for k, v in dims.items()}
    return dict(zip(dims, (g.ravel() for g in np.meshgrid(*dims.values(), indexing="ij"))))


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
    place, in the dtype of ``y``, so a consumer reads them before asking for
    the next step. The first observation seeds the level and, for the trended
    families, y_2 - y_1 seeds the trend; the prediction of y_2 is then fully
    determined by the seeds, so its error is None. Without a season ``y``
    may carry trailing axes, e.g. shape (n, k, 1) runs k inputs side by
    side; every state then has shape (k, grid size).

    Between two steps a consumer may ``send`` the indices of the grid points
    it still wants, in ascending order: the recursion keeps only those
    points, in that order, answers the ``send`` with None and yields the
    shorter states from its next step on.

    Without a season the recursion is linear in ``y`` for fixed parameters,
    which ``groe.forecast_table`` relies on.
    """
    shape = np.broadcast_shapes(np.shape(y[0]), alpha.shape)
    level = np.full(shape, y[0])
    trend = None if beta is None else np.full(shape, y[1] - y[0])
    alpha_beta = None if beta is None else alpha * beta
    e = np.empty_like(level)
    scaled = e if season is None else np.empty_like(level)  # e / s
    step = np.empty_like(level)  # each state's correction in turn
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
            e, step = np.empty_like(level), np.empty_like(level)
            scaled = e if season is None else np.empty_like(level)
            yield


@np.errstate(over="ignore", invalid="ignore")  # an overflowed SSE is only reported
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


def _search(grid: dict[str, np.ndarray], runs: np.ndarray, checks: dict, season=None) -> dict:
    """Search the flattened ``grid`` (see :func:`_grid`) on ``runs``, ``_BLOCK`` points at a time.

    ``runs`` has shape (n, members, inputs, 1): one member, or several with
    one input each, and one of both under a season (see the module
    docstring). A block sums each member's one-step error products, e*e or
    e_a*e_b in row a*inputs + b. ``checks`` maps a prefix length t to the
    ``range`` of consecutive members scored after y_t and their one (rows,
    inputs**2) weight matrix: each row w scores every grid point by ``w @
    products`` of its member; a fit's matrix is ``_SSE``, so its score is its
    SSE. A row's winner, with a copy of its state, is the first least sanitised
    score: a later block replaces it only on a strict ``<``. Returns ``{(member,
    t): (score, params, level, trend, season)}`` over ``checks``, rows last.
    """
    n, members, inputs = runs.shape[:3]
    # _recurrence takes a season only on a 1-d input, so a single run is passed as one
    y = runs.reshape(n) if members * inputs == 1 else runs.reshape(n, members * inputs, 1)
    products = np.square if inputs == 1 else lambda e: e[:, None] * e
    last = max(checks)
    found = {}
    with np.errstate(all="ignore"):
        for start in range(0, grid["alpha"].size, _BLOCK):
            block = {k: v[start : start + _BLOCK] for k, v in grid.items()}
            steps = _recurrence(y, season=season, **block)
            sums = 0.0
            for t, (e, level, trend, factors) in enumerate(steps, start=2):
                if e is not None:
                    sums += products(e)
                if t in checks:
                    js, w = checks[t]
                    size = level.shape[-1]
                    scores = _sanitize(w @ sums.reshape(members, -1, size)[js.start : js.stop])
                    i, mins = scores.argmin(axis=-1), scores.min(axis=-1)
                    states = [a if a is None else a.reshape(members, -1, size) for a in (level, trend)]
                    for pos, j in enumerate(js):
                        state = (*(a if a is None else a[j] for a in states), factors, *block.values())
                        won = [mins[pos], *(a if a is None else a.take(i[pos], -1) for a in state)]
                        if (j, t) in found:
                            score, params, *old = found[j, t]
                            better = won[0] < score
                            won = [a if a is None else np.where(better, a, b)
                                   for a, b in zip(won, (score, *old, *params.values()))]
                        found[j, t] = (won[0], dict(zip(grid, won[4:])), *won[1:4])
                    if t == last:
                        break
    return found


@np.errstate(all="ignore")  # an overflowed or NaN SSE never wins
def _sweep(grid: dict[str, np.ndarray], y: np.ndarray, season, dtype, margin: float, stop=0.0):
    """Sweep a fit's ``grid`` on the 1-d ``y`` in ``dtype`` (see the module docstring):
    the least sanitised SSE, and the ascending indices of the points whose SSE is at
    most that times ``1 + margin``; or, once a bound falls under ``stop``, it and None."""
    size = grid["alpha"].size
    width = _BLOCK * 8 // np.dtype(dtype).itemsize  # blocks of any dtype hold as many bytes
    y, season = y.astype(dtype), None if season is None else season.astype(dtype)
    bound, kept = np.inf, []
    sample = [slice(0, size, _STRIDE)] if size > width else []  # a one-block grid needs no first bound
    for block in [*sample, *(slice(s, s + width) for s in range(0, size, width))]:
        index, limit = np.arange(*block.indices(size)), bound * (1 + margin)
        steps = _recurrence(y, season=season, **{k: v[block].astype(dtype) for k, v in grid.items()})
        sums = 0.0
        for t, (e, *_) in enumerate(steps, start=2):
            if e is not None:
                sums += np.square(e)
            if t % _CHECK == 0:
                over = sums > limit
                dropped = np.count_nonzero(over)
                if dropped == over.size:
                    break  # no point of this block can come within the margin
                if dropped * _COMPACT >= over.size:
                    live = np.flatnonzero(~over)
                    steps.send(live)
                    sums, index = sums[live], index[live]
        else:
            sums = _sanitize(sums)
            if (bound := min(bound, sums.min())) < stop:
                return bound, None
            near = sums <= bound * (1 + margin)
            kept.append((index[near], sums[near]))
    # a sample's points (an infinite limit abandons nothing) recur in the blocks
    index, sums = (np.concatenate(a) for a in zip(*kept[len(sample):]))
    return bound, index[sums <= bound * (1 + margin)]


def _screen(grid: dict[str, np.ndarray], y: np.ndarray, season) -> dict[str, np.ndarray]:
    """The points of a fit's ``grid`` on ``y`` the float64 search runs (see the module docstring)."""
    scaled, floor = np.ldexp(y, -np.frexp(np.abs(y).max())[1]), _FLOOR * y.size
    best, keep = _sweep(grid, scaled, season, np.float32, _MARGIN, floor)
    if not floor <= best < np.inf:
        keep = _sweep(grid, y, season, np.float64, 0.0)[1][:1]  # ties all: the first wins
    return {k: v[keep] for k, v in grid.items()}


def fit_all(spec: ForecasterSpec, series: list, season=None) -> list:
    """A fit of ``spec``'s family, with the factors ``season`` when given, on
    every series, packed as the module docstring says: one fit per series, or
    the ``ValueError`` of a series that is too short or on which the recursion
    overflows at every grid point, which leaves the other series' fits alone."""
    min_n = _min_n(spec.family)
    out = [ValueError(f"series {s.id!r}: family {spec.family!r} needs n >= {min_n}, got n={s.n}")
           if s.n < min_n else None for s in series]
    if not _PARAMS[spec.family]:
        return [failed or _fit_naive(s, season) for failed, s in zip(out, series)]
    grid = _grid(spec)
    pack = 1 if season is not None else max(1, _BLOCK // grid["alpha"].size)
    order = sorted((j for j, failed in enumerate(out) if failed is None), key=lambda j: series[j].n)
    for start in range(0, len(order), pack):
        members = [series[j] for j in order[start : start + pack]]
        runs = np.zeros((members[-1].n, len(members), 1, 1))
        for m, s in enumerate(members):
            runs[: s.n, m, 0, 0] = s.values
        narrow = grid if grid["alpha"].size <= _BLOCK else _screen(grid, members[0].values, season)
        lengths = [s.n for s in members]  # ascending, so each length's members are consecutive
        checks = {t: (range(bisect_left(lengths, t), bisect_right(lengths, t)), _SSE) for t in lengths}
        found = _search(narrow, runs, checks, season)
        for m, (j, s) in enumerate(zip(order[start : start + pack], members)):
            (sse,), params, level, trend, factors = found[m, s.n]
            out[j] = ValueError(
                f"series {s.id!r}: family {spec.family!r} has no finite in-sample SSE "
                "at any grid point (the recursion overflows)"
            ) if sse == np.inf else FittedForecaster(
                spec.family, s.n, float(sse), float(level[0, 0]),
                0.0 if trend is None else float(trend[0, 0]),
                None if factors is None else factors[:, 0], {k: float(v[0]) for k, v in params.items()},
            )
    return out


def fit(spec: ForecasterSpec, series: TimeSeries) -> FittedForecaster:
    """Fit a forecast family to a series.

    The seasonal families test the series' seasonality themselves and fit
    their sibling when it fails; the other families never test it.

    Degenerate inputs (e.g. constant series) are not errors: the grid search
    simply returns its best point, which yields flat forecasts. A series that
    is too short, or on which the recursion overflows at every grid point,
    raises ``ValueError`` naming the family that ran.
    """
    seasonal = spec.family in SEASONAL and seasonality_applies(series)
    season = seasonal_indices(series).indices if seasonal else None
    (fitted,) = fit_all(replace(spec, family=effective_family(spec.family, season)), [series], season)
    if isinstance(fitted, ValueError):
        raise fitted
    return fitted


def effective_family(family: str, indices) -> str:
    """The family a fit of ``family`` runs, given the series' seasonality decision
    ``indices`` (None when it is not seasonal): a seasonal family without a season
    is its non-seasonal sibling."""
    return _SIBLING[family] if family in SEASONAL and indices is None else family


def damping(phi, h: int) -> np.ndarray:
    """The trend multiples phi + phi**2 + ... + phi**k for k = 1..h, along a new
    last axis of ``phi``; exactly k when phi is 1 (SES and Holt)."""
    return np.cumsum(np.asarray(phi)[..., None] ** np.arange(1, h + 1), axis=-1)


def forecast(fitted: FittedForecaster, h: int) -> np.ndarray:
    """Point forecasts for steps 1..h from the fitted final state."""
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    phi = fitted.params.get("phi")
    # without phi the multiples are 1..h, exactly what damping(1.0, h) gives
    out = fitted.level + (np.arange(1.0, h + 1) if phi is None else damping(phi, h)) * fitted.trend
    if fitted.season is not None:
        out = out * fitted.season[(fitted.n + np.arange(h)) % fitted.season.size]
    return out
