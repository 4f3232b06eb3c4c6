"""End-to-end per-series forecast pipelines.

``run_method`` is the one entry point for every :class:`MethodSpec`. It runs
a spec without a ``family`` as the full optimised-theta sequence:
seasonality test, multiplicative deseasonalization, theta selection by
rolling-origin validation on the adjusted series, theta-line decomposition
and extrapolation, recombination, and reseasonalization. Classic Theta,
``MethodSpec.classic_theta()``, fixes theta to 2 (no selection step). A spec
with a ``family`` runs that reference family. A spec is checked when it is
built, by the same ``groe`` and ``theta`` checks its run makes.

The method tokens of one series share a :class:`SeriesContext`, given to
``run_method``, which does each piece of their common work once, when a
token first needs it: the seasonal decision and adjusted series, whose
decision the seasonal benchmark families read too; one GROE loss table per
(grid, cost, extrapolator) over the union of the otm tokens' origins (every
schedule uses H = h, so a (theta, origin) loss is the same for each token
that visits it); and one reseasonalised forecast per (theta, extrapolator).
Each otm token sums its own origins' rows as ``estimate_theta`` does, so its
result does not depend on the other tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import smoothing
from .groe import (
    DEFAULT_THETA_GRID, approach_config, check_approach, check_grid, loss_table, resolve_cost,
    scored_origins, select_theta,
)
from .seasonal import (
    SeasonalIndices, deseasonalize, reseasonalize, seasonal_indices, seasonality_applies,
)
from .series import TimeSeries
from .smoothing import FAMILIES, SEASONAL, ForecasterSpec
from .theta import check_extrapolator, otm_forecast

FALLBACK_THETA = 2.0


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
    extrapolator: ForecasterSpec = field(default_factory=lambda: ForecasterSpec("ses"))

    def __post_init__(self) -> None:
        if self.family is None:
            check_extrapolator(self.extrapolator)
            check_approach(self.approach)
            resolve_cost(self.cost)
        elif self.family not in FAMILIES:
            raise ValueError(f"benchmark family must be one of {FAMILIES}, got {self.family!r}")
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


def _table_key(spec: MethodSpec) -> tuple:
    return (spec.grid, spec.cost, spec.extrapolator)


class SeriesContext:
    """Per-series work shared by the method tokens ``specs`` run on ``series``.

    Nothing is computed until a token asks for it, and a piece that raises
    is not stored, so it fails every token that needs it and no other.
    """

    def __init__(self, series: TimeSeries, h: int, specs=()) -> None:
        self.series = series
        self.h = h
        self.specs = tuple(specs)
        self._adjusted: tuple[bool, SeasonalIndices | None, TimeSeries] | None = None
        self._tables: dict[tuple, dict[int, np.ndarray]] = {}
        self._forecasts: dict[tuple[float, ForecasterSpec], np.ndarray] = {}

    def adjusted(self) -> tuple[bool, SeasonalIndices | None, TimeSeries]:
        """(seasonal, indices or None, the series theta is selected and fitted on)."""
        if self._adjusted is None:
            if seasonality_applies(self.series):
                idx = seasonal_indices(self.series)
                self._adjusted = (True, idx, deseasonalize(self.series, idx))
            else:
                self._adjusted = (False, None, self.series)
        return self._adjusted

    def _origins(self, spec: MethodSpec) -> list[int]:
        return scored_origins(approach_config(spec.approach, self.series.n, self.h), self.series.n)

    def _table(self, spec: MethodSpec) -> dict[int, np.ndarray]:
        key = _table_key(spec)
        if key not in self._tables:
            union: set[int] = set()
            for other in self.specs:
                if other.family is None and _table_key(other) == key:
                    try:
                        union.update(self._origins(other))
                    except ValueError:
                        pass  # that token falls back and reads no table
            _, _, work = self.adjusted()
            self._tables[key] = loss_table(
                work, spec.grid, sorted(union), self.h, spec.cost, spec.extrapolator
            )
        return self._tables[key]

    def theta(self, spec: MethodSpec) -> tuple[float, str | None]:
        """The token's theta and, when it fell back to theta=2, why."""
        if len(spec.grid) == 1:
            return spec.grid[0], None
        try:
            origins = self._origins(spec)
        except ValueError as exc:
            return FALLBACK_THETA, f"fallback to theta={FALLBACK_THETA:g}: {exc}"
        return select_theta(spec.grid, self._table(spec), origins, self.series.id), None

    def forecast(self, theta: float, extrapolator: ForecasterSpec) -> np.ndarray:
        """Reseasonalised combined forecasts of one (theta, extrapolator)."""
        key = (theta, extrapolator)
        if key not in self._forecasts:
            seasonal, idx, work = self.adjusted()
            forecasts = otm_forecast(work, theta, self.h, extrapolator)
            if seasonal:
                forecasts = reseasonalize(forecasts, idx, start_t=self.series.n + 1)
            forecasts.setflags(write=False)  # handed to every token with this key
            self._forecasts[key] = forecasts
        return self._forecasts[key]


def run_method(
    series: TimeSeries, h: int, spec: MethodSpec, *, context: SeriesContext | None = None
) -> ForecastResult:
    """Run ``spec`` on one series: the optimised-theta pipeline when it has
    no ``family``, else that reference family.

    ``context``, when given, must have been built for this series, h and
    spec; its work is then shared with the other tokens it was built for.
    Seasonal-capable families (naive2, holt_winters, seasonal_damped) take
    the context's seasonality decision and fall back to their non-seasonal
    sibling when it fails.
    """
    if context is None:
        context = SeriesContext(series, h, (spec,))
    elif context.series is not series or context.h != h or spec not in context.specs:
        raise ValueError(
            f"the context was not built for series {series.id!r}, h={h} and {spec.name!r}"
        )
    if spec.family is not None:
        # the other families never read the seasonal decision, so it is not made for them
        indices = context.adjusted()[1] if spec.family in SEASONAL else None
        fitted = smoothing.fit(ForecasterSpec(spec.family), series, indices=indices)
        return ForecastResult(
            series_id=series.id,
            method=spec.name,
            forecasts=smoothing.forecast(fitted, h),
            theta=None,
            seasonal=fitted.seasonal,
        )
    if series.n < 3:
        raise ValueError(f"series {series.id!r}: theta pipelines need n >= 3, got n={series.n}")
    seasonal, _, _ = context.adjusted()
    theta, note = context.theta(spec)
    return ForecastResult(
        series_id=series.id,
        method=spec.name,
        forecasts=context.forecast(theta, spec.extrapolator),
        theta=theta,
        seasonal=seasonal,
        note=note,
    )
