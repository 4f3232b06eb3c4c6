"""End-to-end per-series forecast pipelines.

``run_otm`` implements the full optimised-theta sequence: seasonality test,
multiplicative deseasonalization, theta selection by rolling-origin
validation on the adjusted series, theta-line decomposition and
extrapolation, recombination, and reseasonalization. ``run_classic_theta``
is the same pipeline with theta fixed to 2 (no selection step), and
``run_benchmark`` dispatches the reference families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import smoothing
from .groe import DEFAULT_THETA_GRID, approach_config, estimate_theta
from .seasonal import deseasonalize, reseasonalize, seasonal_indices, seasonality_applies
from .series import TimeSeries
from .smoothing import FAMILIES, ForecasterSpec
from .theta import LINE_EXTRAPOLATORS, otm_forecast

KINDS = ("otm", "benchmark")
FALLBACK_THETA = 2.0


@dataclass(frozen=True)
class MethodSpec:
    """A named forecasting method for batch runs.

    Classic Theta is exactly the otm kind with the singleton grid (2,); the
    approach/cost fields are then irrelevant because no selection happens.
    """

    name: str
    kind: str
    family: str | None = None
    approach: str = "a"
    cost: str = "se"
    grid: tuple[float, ...] = DEFAULT_THETA_GRID
    extrapolator: ForecasterSpec = field(default_factory=lambda: ForecasterSpec("ses"))

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "benchmark":
            if self.family not in FAMILIES:
                raise ValueError(f"benchmark family must be one of {FAMILIES}, got {self.family!r}")
        elif self.extrapolator.family not in LINE_EXTRAPOLATORS:
            raise ValueError(
                f"theta-line extrapolator must be one of {LINE_EXTRAPOLATORS}, "
                f"got {self.extrapolator.family!r}"
            )
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))

    @staticmethod
    def otm(approach: str, cost: str = "se", extrapolator: str | ForecasterSpec = "ses",
            grid=DEFAULT_THETA_GRID, name: str | None = None) -> "MethodSpec":
        if isinstance(extrapolator, str):
            extrapolator = ForecasterSpec(extrapolator)
        return MethodSpec(
            name=name or f"otm-{approach}",
            kind="otm",
            approach=approach,
            cost=cost,
            grid=tuple(grid),
            extrapolator=extrapolator,
        )

    @staticmethod
    def classic_theta(name: str = "theta") -> "MethodSpec":
        return MethodSpec(name=name, kind="otm", grid=(2.0,))

    @staticmethod
    def benchmark(family: str, name: str | None = None) -> "MethodSpec":
        return MethodSpec(name=name or family, kind="benchmark", family=family)


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


def _theta_pipeline(
    series: TimeSeries,
    h: int,
    grid: tuple[float, ...],
    approach: str,
    cost: str,
    extrapolator: ForecasterSpec,
) -> tuple[np.ndarray, float, bool, str | None]:
    if series.n < 3:
        raise ValueError(f"series {series.id!r}: theta pipelines need n >= 3, got n={series.n}")
    seasonal = seasonality_applies(series)
    if seasonal:
        idx = seasonal_indices(series)
        work = deseasonalize(series, idx)
    else:
        work = series
    note = None
    if len(grid) == 1:
        theta = float(grid[0])
    else:
        try:
            config = approach_config(approach, work.n, h)
        except ValueError as exc:
            theta = FALLBACK_THETA
            note = f"fallback to theta={FALLBACK_THETA:g}: {exc}"
        else:
            theta = estimate_theta(work, grid=grid, config=config, cost=cost,
                                   extrapolator=extrapolator)
    forecasts = otm_forecast(work, theta, h, extrapolator)
    if seasonal:
        forecasts = reseasonalize(forecasts, idx, start_t=series.n + 1)
    return forecasts, theta, seasonal, note


def run_otm(series: TimeSeries, h: int, spec: MethodSpec) -> ForecastResult:
    """Run the optimised-theta pipeline for one series."""
    if spec.kind != "otm":
        raise ValueError(f"run_otm needs an otm spec, got kind {spec.kind!r}")
    forecasts, theta, seasonal, note = _theta_pipeline(
        series, h, spec.grid, spec.approach, spec.cost, spec.extrapolator
    )
    return ForecastResult(
        series_id=series.id,
        method=spec.name,
        forecasts=forecasts,
        theta=theta,
        seasonal=seasonal,
        note=note,
    )


def run_classic_theta(series: TimeSeries, h: int, name: str = "theta") -> ForecastResult:
    """Classic Theta: the otm pipeline with theta fixed to 2 and SES extrapolation."""
    return run_otm(series, h, MethodSpec.classic_theta(name=name))


def run_benchmark(series: TimeSeries, h: int, spec: MethodSpec) -> ForecastResult:
    """Run one of the reference families for one series.

    Seasonal-capable families (naive2, holt_winters, seasonal_damped)
    consult the seasonality test internally and fall back to their
    non-seasonal sibling when it fails.
    """
    if spec.kind != "benchmark":
        raise ValueError(f"run_benchmark needs a benchmark spec, got kind {spec.kind!r}")
    fitted = smoothing.fit(ForecasterSpec(spec.family), series)
    forecasts = smoothing.forecast(fitted, h)
    return ForecastResult(
        series_id=series.id,
        method=spec.name,
        forecasts=forecasts,
        theta=None,
        seasonal=fitted.seasonal,
    )


def run_method(series: TimeSeries, h: int, spec: MethodSpec) -> ForecastResult:
    """Dispatch a MethodSpec to the matching pipeline."""
    if spec.kind == "benchmark":
        return run_benchmark(series, h, spec)
    return run_otm(series, h, spec)
