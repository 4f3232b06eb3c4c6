"""End-to-end per-series forecast pipelines.

``run_method`` runs a :class:`MethodSpec` through its one body,
:meth:`SeriesContext.run`. A spec without a ``family`` runs the full
optimised-theta sequence: seasonality test, multiplicative deseasonalization,
theta selection by rolling-origin validation on the adjusted series, theta-line
decomposition and extrapolation, recombination, and reseasonalization. Classic
Theta, ``MethodSpec.classic_theta()``, fixes theta to 2 (no selection step). A
spec with a ``family`` runs that reference family. A spec is checked when it is
built, by the same ``groe``, ``theta`` and ``smoothing`` checks its run makes.

The method tokens of one series share a :class:`SeriesContext`, given to
``run_method``. It plans each otm token once, from n and h: one with more
than one grid theta selects, or falls back to theta=2 when its schedule does
not fit; any other fits its one theta. The common work is done once, when a
token first needs it: the seasonal decision and adjusted series, which the
seasonal families read too, and one GROE forecast table per (grid,
extrapolator) over n and its selecting tokens' origins (every schedule uses
H = h; the search has no cost). The tokens of a table and a cost share each
origin's loss rows, and each selecting token sums its own origins' rows, as
``estimate_theta`` does, and takes the chosen row at n. A smoothing fit is
made once per series and family (with pins), so a seasonal family falling back
to its sibling reuses that token's fit. A context plans in one table: a GROE
table's key maps to its origins, a fit's to None. Before a runner task's
tokens run, :func:`make_batches` makes each key its contexts plan in one batch
(``smoothing.fit_all``, ``groe.forecast_tables``) for all that plan it, its
time charged to them by their series' lengths. A key no batch made is made
alone by the token that asks for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import smoothing
from .dataset import check_field
from .groe import (
    DEFAULT_THETA_GRID, approach_config, check_approach, check_grid, forecast_tables,
    loss_rows, resolve_cost, scored_origins, select_theta,
)
from .seasonal import (
    SeasonalIndices, deseasonalize, reseasonalize, seasonal_indices, seasonality_applies,
)
from .series import TimeSeries, TrendFit, fit_linear_trend
from .smoothing import SEASONAL, ForecasterSpec
from .theta import SES, check_extrapolator, otm_forecast, theta_line

FALLBACK_THETA = 2.0
MIN_THETA_N = 3


@dataclass(frozen=True)
class MethodSpec:
    """A named forecasting method for batch runs.

    A spec with a ``family`` is a benchmark; one without is the otm kind.
    Classic Theta is exactly the otm kind with the singleton grid (2,); the
    approach/cost fields are then irrelevant because no selection happens.
    """

    name: str
    family: str | None = None
    approach: str = "a"
    cost: str = "se"
    grid: tuple[float, ...] = DEFAULT_THETA_GRID
    extrapolator: ForecasterSpec = SES

    def __post_init__(self) -> None:
        check_field(self.name, "method", "a name")  # it is a field of every output row
        if self.family is not None:
            ForecasterSpec(self.family)  # refuses an unknown family
        else:
            check_extrapolator(self.extrapolator)
            check_approach(self.approach)
            resolve_cost(self.cost)
        object.__setattr__(self, "grid", check_grid(self.grid))

    @staticmethod
    def otm(approach: str, cost: str = "se", extrapolator: str | ForecasterSpec = "ses",
            grid=DEFAULT_THETA_GRID, name: str | None = None) -> "MethodSpec":
        if isinstance(extrapolator, str):
            extrapolator = ForecasterSpec(extrapolator)
        return MethodSpec(
            name=name or f"otm-{approach}",
            approach=approach,
            cost=cost,
            grid=tuple(grid),
            extrapolator=extrapolator,
        )

    @staticmethod
    def classic_theta() -> "MethodSpec":
        return MethodSpec(name="theta", grid=(2.0,))

    @staticmethod
    def benchmark(family: str, name: str | None = None) -> "MethodSpec":
        return MethodSpec(name=name or family, family=family)


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts for one series plus run provenance.

    Construction rejects a non-finite forecast with ``ValueError``, so the
    runner records that cell as failed and no NaN or inf reaches a score.
    """

    series_id: str
    method: str
    forecasts: np.ndarray
    theta: float | None
    seasonal: bool
    note: str | None = None

    def __post_init__(self) -> None:
        forecasts = np.asarray(self.forecasts, dtype=np.float64).copy()
        if not np.all(np.isfinite(forecasts)):
            raise ValueError(
                f"series {self.series_id!r}: method {self.method!r} produced a non-finite forecast"
            )
        forecasts.setflags(write=False)
        object.__setattr__(self, "forecasts", forecasts)


class SeriesContext:
    """Per-series work shared by the method tokens ``specs`` run on ``series``.

    Construction plans each otm token (its scored origins, or its one theta
    and any fallback note) and, in one table, the batches its tokens will ask
    for: each GROE table with its origins, and each fit without a season.
    Nothing else is computed until :func:`make_batches` or a token asks for
    it, and a piece that raises is not stored (a fit or a table keeps its
    error), so it fails every token that needs it and no other.
    """

    def __init__(self, series: TimeSeries, h: int, specs=()) -> None:
        self.series = series
        self.h = h
        self.specs = tuple(specs)
        self.charge = 0.0
        self._rows: dict[tuple, dict[int, np.ndarray]] = {}
        # a table's (grid, extrapolator) or a fit's (theta or None, spec): (it or its error, time share)
        self._done: dict[tuple, tuple] = {}
        self._planned: dict[tuple, set[int] | None] = {}  # planned keys: a table's origins, a fit's None
        self._origins: dict[MethodSpec, list[int]] = {}
        self._fixed: dict[MethodSpec, tuple[float, str | None]] = {}
        for spec in self.specs:
            if spec.family is None and len(spec.grid) > 1:
                try:
                    config = approach_config(spec.approach, series.n, h)
                    origins = self._origins[spec] = scored_origins(config, series.n)
                    self._planned.setdefault((spec.grid, spec.extrapolator), {series.n}).update(origins)
                except ValueError as exc:
                    self._fixed[spec] = FALLBACK_THETA, f"fallback to theta={FALLBACK_THETA:g}: {exc}"
            elif spec.family is None:
                self._fixed[spec] = spec.grid[0], None
            elif spec.family not in SEASONAL:
                self._planned[None, ForecasterSpec(spec.family)] = None
        if series.n >= MIN_THETA_N:
            self._planned.update(((theta, spec.extrapolator), None) for spec, (theta, _) in self._fixed.items())

    @cached_property
    def adjusted(self) -> tuple[SeasonalIndices | None, TimeSeries]:
        """(indices or None, the series theta is selected and fitted on)."""
        if seasonality_applies(self.series):
            idx = seasonal_indices(self.series)
            return idx, deseasonalize(self.series, idx)
        return None, self.series

    @cached_property
    def trend(self) -> TrendFit:
        """The OLS line of the adjusted series, which a fixed-theta token's theta line is built
        on and its forecasts are recombined with."""
        return fit_linear_trend(self.adjusted[1])

    def _input(self, key: tuple) -> tuple:
        # what the batch of ``key`` runs on: a table's forecast_tables member, or the
        # series a fit runs on and its seasonal factors
        first, spec = key
        if isinstance(first, tuple):  # a table's (grid, extrapolator)
            return self.adjusted[1], self._planned[key], self.h
        if first is None:
            return self.series, self.adjusted[0].indices if spec.family in SEASONAL else None
        return theta_line(self.adjusted[1], self.trend, first), None

    def _take(self, key: tuple):
        # the result of ``key``, raising its error: a batch's charges its time share to the
        # first cell that takes it, and a key no batch made is made alone, in this cell's time
        if key not in self._done:
            _batch(key, [self])
            self._done[key] = self._done[key][0], 0.0
        result, share = self._done[key]
        self._done[key] = result, 0.0
        self.charge += share
        if isinstance(result, Exception):
            raise result
        return result

    def settle(self) -> float:
        """The batch time shares that the cell that just ran took."""
        charge, self.charge = self.charge, 0.0
        return charge

    def run(self, spec: MethodSpec) -> ForecastResult:
        """Run ``spec``, one of the context's tokens, on the series: the optimised-theta
        sequence when it has no ``family``, else that reference family, whose seasonal
        kinds (naive2, holt_winters, seasonal_damped) take the context's seasonality
        decision and fall back to their non-seasonal sibling when it fails."""
        series, h = self.series, self.h
        if spec.family is not None:
            # the other families never read the seasonal decision, so it is not made for them
            indices = self.adjusted[0] if spec.family in SEASONAL else None
            family = smoothing.effective_family(spec.family, indices)
            fitted = self._take((None, ForecasterSpec(family)))
            return ForecastResult(series.id, spec.name, smoothing.forecast(fitted, h), None, fitted.seasonal)
        if series.n < MIN_THETA_N:
            raise ValueError(f"series {series.id!r}: theta pipelines need n >= 3, got n={series.n}")
        idx, work = self.adjusted
        if spec in self._origins:
            table, n = self._take((spec.grid, spec.extrapolator)), series.n
            key = (spec.grid, spec.extrapolator, spec.cost)
            if key not in self._rows:  # every origin of the table but n, scored once per cost
                self._rows[key] = loss_rows(work, spec.grid, table, set(table) - {n}, spec.cost)
            theta = select_theta(work, spec.grid, self._rows[key], self._origins[spec])
            forecasts, note = table[n][spec.grid.index(theta)], None
        else:
            theta, note = self._fixed[spec]
            fitted = self._take((theta, spec.extrapolator))
            forecasts = otm_forecast(work, theta, h, spec.extrapolator, fitted, fit=self.trend)
        if idx is not None:
            forecasts = reseasonalize(forecasts, idx, start_t=series.n + 1)
        return ForecastResult(series.id, spec.name, forecasts, theta, idx is not None, note)


def _batch(key: tuple, contexts: list[SeriesContext]) -> None:
    # one forecast_tables or fit_all call of ``key`` for ``contexts``: each keeps its result or
    # error (that of the whole call, if it raises) and a time share by its series' length
    start = time.perf_counter()
    inputs = {}
    for context in contexts:
        try:
            inputs[context] = context._input(key)
        except Exception as exc:
            context._done[key] = exc, 0.0
    try:
        if isinstance(key[0], tuple):
            results = forecast_tables(list(inputs.values()), *key)
        else:  # no context plans a fit with a season, so one with a season runs alone
            season = next(iter(inputs.values()), (None, None))[1]
            results = smoothing.fit_all(key[1], [line for line, _ in inputs.values()], season=season)
    except Exception as exc:
        results = [exc] * len(inputs)
    elapsed = time.perf_counter() - start
    total = sum(work.n for work, *_ in inputs.values())
    for (context, (work, *_)), result in zip(inputs.items(), results):
        context._done[key] = result, elapsed * work.n / total


def make_batches(contexts: list[SeriesContext]) -> None:
    """Make every key that ``contexts`` plan, before any of their tokens runs: one
    batch per key for every context that plans it."""
    for key in dict.fromkeys(key for context in contexts for key in context._planned):
        _batch(key, [context for context in contexts if key in context._planned])


def run_method(
    series: TimeSeries, h: int, spec: MethodSpec, *, context: SeriesContext | None = None
) -> ForecastResult:
    """Run ``spec`` on one series through ``context.run`` (see :meth:`SeriesContext.run`).

    ``context``, when given, must have been built for this series, h and
    spec; its work is then shared with the other tokens it was built for.
    """
    if context is None:
        context = SeriesContext(series, h, (spec,))
    elif context.series is not series or context.h != h or spec not in context.specs:
        raise ValueError(
            f"the context was not built for series {series.id!r}, h={h} and {spec.name!r}"
        )
    return context.run(spec)
