"""Batch experiment driver with deterministic, order-stable aggregation.

Per-series work is pure, so it can be farmed out to a process pool; results
are merged back in dataset order and folded sequentially, which makes every
output file (timing aside) identical for any worker count.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, DatasetEntry
from .metrics import (
    AggregateRow,
    SeriesScore,
    UndefinedMetricError,
    aggregate_scores,
    average_ranks,
    mase,
    smape,
)
from .pipeline import ForecastResult, MethodSpec, SeriesContext, run_method

SCORES_FILE = "scores.csv"
AGGREGATE_FILE = "aggregate.csv"
FORECASTS_FILE = "forecasts.csv"
RANKS_FILE = "ranks.csv"
FORECASTS_HEADER = "id,method,theta_hat,seasonal,f_1..f_h"


@dataclass(frozen=True)
class ExperimentConfig:
    """Methods to run plus execution knobs."""

    methods: tuple[MethodSpec, ...]
    workers: int = 1
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("need at least one method to evaluate")
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"method names must be unique, got {names}")


@dataclass(frozen=True)
class ExperimentResult:
    scores: tuple[SeriesScore, ...]
    table: tuple[AggregateRow, ...]
    forecasts: tuple[ForecastResult, ...]
    rank_smape: dict[str, float] | None
    rank_mase: dict[str, float] | None


# one (series, method) cell: its score row and, unless it failed, its forecasts
Cell = tuple[SeriesScore, ForecastResult | None]


def _evaluate_entry(entry: DatasetEntry, methods: tuple[MethodSpec, ...]) -> list[Cell]:
    # built here, in the worker, so the shared work is never pickled; each
    # piece of it is timed in the first cell that needs it
    context = SeriesContext(entry.series, entry.h, methods)
    out: list[Cell] = []
    for spec in methods:
        result = error = smape_value = mase_value = None
        start = time.perf_counter()
        try:
            result = run_method(entry.series, entry.h, spec, context=context)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if result is not None:
            smape_value = smape(entry.actuals, result.forecasts)
            try:
                mase_value = mase(entry.series.values, entry.actuals, result.forecasts)
            except UndefinedMetricError:
                pass
        score = SeriesScore(
            series_id=entry.series.id,
            group=entry.group,
            method=spec.name,
            smape=smape_value,
            mase=mase_value,
            theta=None if result is None else result.theta,
            elapsed=elapsed,
            error=error,
        )
        out.append((score, result))
    return out


def _rank_table(
    per_entry: list[list[Cell]], methods: list[str], attr: str
) -> dict[str, float] | None:
    """Average ranks over the series every method scored.

    ``per_entry`` holds one row per series and one cell per method, in
    ``methods`` order. Ranking is refused (None) when a cell failed, when
    a series is scored by some methods but not others, or when no series
    is scored at all.
    """
    rows = []
    for cells in per_entry:
        if any(score.error is not None for score, _ in cells):
            return None
        values = [getattr(score, attr) for score, _ in cells]
        defined = [v is not None for v in values]
        if any(defined) != all(defined):
            return None
        if all(defined):
            rows.append(values)
    if not rows:
        return None
    return average_ranks(dict(zip(methods, zip(*rows))))


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> ExperimentResult:
    """Forecast and score every (series, method) cell, then aggregate.

    A method failing on a series yields a score row with an error message
    and no metrics; the batch never aborts. Output files are written when
    ``config.out_dir`` is set.
    """
    entries = list(dataset)
    job = functools.partial(_evaluate_entry, methods=tuple(config.methods))
    if config.workers > 1 and len(entries) > 1:
        with multiprocessing.Pool(min(config.workers, len(entries))) as pool:
            per_entry = pool.map(job, entries)
    else:
        per_entry = [job(e) for e in entries]
    scores = tuple(score for cell_list in per_entry for score, _ in cell_list)
    forecasts = tuple(
        result for cell_list in per_entry for _, result in cell_list if result is not None
    )
    method_names = [m.name for m in config.methods]
    result = ExperimentResult(
        scores=scores,
        table=tuple(aggregate_scores(scores)),
        forecasts=forecasts,
        rank_smape=_rank_table(per_entry, method_names, "smape"),
        rank_mase=_rank_table(per_entry, method_names, "mase"),
    )
    if config.out_dir is not None:
        write_outputs(result, config.out_dir)
    return result


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def forecast_row(fc: ForecastResult) -> str:
    """One forecasts row (see ``FORECASTS_HEADER``), shared by ``evaluate`` and ``forecast``."""
    parts = [fc.series_id, fc.method, _fmt(fc.theta), str(int(fc.seasonal))]
    parts += [repr(float(v)) for v in fc.forecasts]
    return ",".join(parts)


def write_outputs(result: ExperimentResult, out_dir) -> dict[str, Path]:
    """Write scores, aggregate table, forecasts, and (when complete) ranks."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    lines = ["id,method,smape,mase,theta_hat"]
    for s in result.scores:
        lines.append(",".join([s.series_id, s.method, _fmt(s.smape), _fmt(s.mase), _fmt(s.theta)]))
    paths["scores"] = out_dir / SCORES_FILE
    paths["scores"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["method,group,n_series,n_smape,n_mase,n_failed,smape_mean,mase_mean,elapsed_sec"]
    for row in result.table:
        lines.append(
            ",".join(
                [
                    row.method,
                    row.group,
                    str(row.n_series),
                    str(row.n_smape),
                    str(row.n_mase),
                    str(row.n_failed),
                    _fmt(row.smape_mean),
                    _fmt(row.mase_mean),
                    f"{row.elapsed:.3f}",
                ]
            )
        )
    paths["aggregate"] = out_dir / AGGREGATE_FILE
    paths["aggregate"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = [FORECASTS_HEADER] + [forecast_row(fc) for fc in result.forecasts]
    paths["forecasts"] = out_dir / FORECASTS_FILE
    paths["forecasts"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    if result.rank_smape is not None:
        lines = ["method,rank_smape,rank_mase"]
        for method, rank in result.rank_smape.items():
            mase_rank = result.rank_mase.get(method) if result.rank_mase else None
            lines.append(",".join([method, _fmt(rank), _fmt(mase_rank)]))
        paths["ranks"] = out_dir / RANKS_FILE
        paths["ranks"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    return paths
