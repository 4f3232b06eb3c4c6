"""Optimised-theta univariate forecasting with rolling-origin validation.

The package decomposes a (seasonally adjusted) series into its OLS trend
line and a theta line that amplifies the local curvature, selects the theta
coefficient by generalised rolling-origin evaluation, and recombines the
extrapolated components with the exact recomposition weights. The classic
equal-weight Theta method, naive/SES/Holt/damped benchmarks and their
seasonal variants, sMAPE/MASE scoring, and a deterministic batch runner
round out an M3-style evaluation harness.
"""

from .dataset import Dataset, DatasetEntry, DatasetError, load_dataset, save_dataset, synthetic_dataset
from .groe import (
    APPROACHES,
    DEFAULT_THETA_GRID,
    EvaluationError,
    GroeConfig,
    approach_config,
    estimate_theta,
    origin_schedule,
    p_max,
)
from .metrics import (
    AggregateRow,
    SeriesScore,
    UndefinedMetricError,
    aggregate_scores,
    average_ranks,
    mase,
    smape,
)
from .pipeline import ForecastResult, MethodSpec, run_method
from .runner import ExperimentConfig, ExperimentResult, run_experiment, write_outputs
from .seasonal import (
    SeasonalIndices,
    deseasonalize,
    is_seasonal,
    reseasonalize,
    seasonal_indices,
    seasonality_applies,
)
from .series import TimeSeries, TrendFit, fit_linear_trend, trend_value
from .smoothing import FAMILIES, FittedForecaster, ForecasterSpec
from .theta import otm_forecast, theta_line

__version__ = "0.1.0"

__all__ = [
    "APPROACHES",
    "AggregateRow",
    "Dataset",
    "DatasetEntry",
    "DatasetError",
    "DEFAULT_THETA_GRID",
    "EvaluationError",
    "ExperimentConfig",
    "ExperimentResult",
    "FAMILIES",
    "FittedForecaster",
    "ForecastResult",
    "ForecasterSpec",
    "GroeConfig",
    "MethodSpec",
    "SeasonalIndices",
    "SeriesScore",
    "TimeSeries",
    "TrendFit",
    "UndefinedMetricError",
    "aggregate_scores",
    "approach_config",
    "average_ranks",
    "deseasonalize",
    "estimate_theta",
    "fit_linear_trend",
    "is_seasonal",
    "load_dataset",
    "mase",
    "origin_schedule",
    "otm_forecast",
    "p_max",
    "reseasonalize",
    "run_experiment",
    "run_method",
    "save_dataset",
    "seasonal_indices",
    "seasonality_applies",
    "smape",
    "synthetic_dataset",
    "theta_line",
    "trend_value",
    "write_outputs",
]
