"""Span tracing for the benchmark's traced run.

Nothing under ``src/`` is changed: while a traced call runs, the public
functions of each package module are replaced, where their callers look
them up, by wrappers that record one span per call. A span is (name,
start, end, parent, cell), where the cell is the (series id, method) pair
being forecast. Spans are kept in memory and written out when the run
ends.

A span's self time is its duration minus the durations of its child
spans; calls are single-threaded (workers=1), so children never overlap.
The self times of all spans add up to the root span, and the traced wall
time minus that sum is the unattributed remainder.

Layers are the package modules: ``dataset``, ``seasonal``, ``series``,
``theta``, ``groe``, ``smoothing``, ``pipeline``, ``metrics``, ``runner``
and ``cli``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from pathlib import Path

import numpy as np

SMOOTHING_FAMILIES = ("ses", "holt", "damped", "holt_winters", "seasonal_damped", "naive", "naive2")

# Grid sizes of the smoothing parameter searches, per searched dimension: a
# 0.01 step on [0, 1] for alpha/beta, 0.05 on [0, 1] for the seasonal
# families' alpha/beta/gamma, 0.01 on [0.80, 0.98] for phi. They define the
# work count `grid_updates`, so they are fixed here rather than read from
# the package: a faster kernel must leave the count unchanged.
WEIGHT_POINTS = 101
SEASONAL_WEIGHT_POINTS = 21
PHI_POINTS = 19


def grid_points(spec, family: str) -> int:
    """Parameter combinations a fit of ``family`` searches under ``spec``'s pins."""

    def dim(pinned, size):
        return 1 if pinned is not None else size

    if family in ("naive", "naive2"):
        return 1
    if family == "ses":
        return dim(spec.alpha, WEIGHT_POINTS)
    if family in ("holt", "damped"):
        points = dim(spec.alpha, WEIGHT_POINTS) * dim(spec.beta, WEIGHT_POINTS)
    else:
        points = (
            dim(spec.alpha, SEASONAL_WEIGHT_POINTS)
            * dim(spec.beta, SEASONAL_WEIGHT_POINTS)
            * dim(spec.gamma, SEASONAL_WEIGHT_POINTS)
        )
    if family in ("damped", "seasonal_damped"):
        points *= dim(spec.phi, PHI_POINTS)
    return points


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cell: list[tuple[str, str] | None] = []
        self.counts: Counter = Counter()
        self.tested_series: set[str] = set()
        self.missing_hooks: list[str] = []
        self._stack: list[int] = []
        self._cell: tuple[str, str] | None = None

    def span(self, name: str, fn, after=None, cell=None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``cell(*args)`` names the cell the call starts; ``after(tracer,
        index, args, result)`` runs after a call that returned.
        """

        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            outer_cell = self._cell
            if cell is not None:
                self._cell = cell(*args)
            self.cell.append(self._cell)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._cell = outer_cell
                self.start[index] = t0
                self.end[index] = t1
            if after is not None:
                after(self, index, args, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as CSV, times in seconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        lines = ["index,name,start_s,end_s,parent,series,method"]
        for i, name in enumerate(self.names):
            sid, method = self.cell[i] or ("", "")
            lines.append(
                f"{i},{name},{self.start[i] - origin:.9f},{self.end[i] - origin:.9f},"
                f"{self.parent[i]},{sid},{method}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _after_fit(tracer: Tracer, index: int, args, fitted) -> None:
    spec, series = args[0], args[1]
    family = fitted.family_used
    tracer.names[index] = f"smoothing.{family}"
    tracer.counts[f"smoothing.{family}.grid_updates"] += grid_points(spec, family) * (series.n - 1)


def _after_seasonality_test(tracer: Tracer, index: int, args, result) -> None:
    tracer.counts["seasonal.tests"] += 1
    tracer.counts["seasonal.positive"] += bool(result)
    cell = tracer.cell[index]
    tracer.tested_series.add(cell[0] if cell else args[0].id)


def _after_estimate(tracer: Tracer, index: int, args, result) -> None:
    tracer.counts["groe.selections"] += 1


def _after_run_method(tracer: Tracer, index: int, args, result) -> None:
    tracer.names[index] = f"pipeline.{args[2].name}"


def _run_method_cell(series, h, spec):
    return (series.id, spec.name)


# (module, attribute, span name, after, cell): each attribute is replaced
# where the caller looks it up, so the span sits at the layer boundary.
HOOKS = (
    ("optitheta.cli", "load_dataset", "dataset.load", None, None),
    ("optitheta.cli", "run_experiment", "runner.run_experiment", None, None),
    ("optitheta.runner", "run_method", "pipeline", _after_run_method, _run_method_cell),
    ("optitheta.runner", "smape", "metrics.score", None, None),
    ("optitheta.runner", "mase", "metrics.score", None, None),
    ("optitheta.runner", "aggregate_scores", "metrics.aggregate", None, None),
    ("optitheta.runner", "average_ranks", "metrics.rank", None, None),
    ("optitheta.runner", "write_outputs", "runner.write", None, None),
    ("optitheta.pipeline", "seasonality_applies", "seasonal.test", _after_seasonality_test, None),
    ("optitheta.pipeline", "seasonal_indices", "seasonal.indices", None, None),
    ("optitheta.pipeline", "deseasonalize", "seasonal.adjust", None, None),
    ("optitheta.pipeline", "reseasonalize", "seasonal.adjust", None, None),
    ("optitheta.pipeline", "estimate_theta", "groe.estimate_theta", _after_estimate, None),
    ("optitheta.pipeline", "otm_forecast", "theta.otm_forecast", None, None),
    ("optitheta.groe", "otm_forecast", "theta.otm_forecast", None, None),
    ("optitheta.theta", "fit_linear_trend", "series.trend", None, None),
    ("optitheta.smoothing", "fit", "smoothing", _after_fit, None),
    ("optitheta.smoothing", "seasonality_applies", "seasonal.test", _after_seasonality_test, None),
    ("optitheta.smoothing", "seasonal_indices", "seasonal.indices", None, None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore.

    A hook whose attribute no longer exists is skipped and listed in
    ``tracer.missing_hooks``; its layer then reads as zero.
    """
    originals = []
    try:
        for module_name, attr, name, after, cell in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                tracer.missing_hooks.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.span(name, original, after=after, cell=cell))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, wall: float, methods) -> dict[str, float]:
    """Per-layer counts and times of one traced call that took ``wall`` seconds."""
    names = np.array(tracer.names)
    start = np.array(tracer.start)
    duration = np.array(tracer.end) - start
    parent = np.array(tracer.parent, dtype=np.int64)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=names.size)
    self_time = duration - child_time

    def select(prefix: str) -> np.ndarray:
        return np.char.startswith(names, prefix) if names.size else np.zeros(0, dtype=bool)

    def count(prefix: str) -> int:
        return int(select(prefix).sum())

    def self_s(prefix: str) -> float:
        return float(self_time[select(prefix)].sum())

    out: dict[str, float] = {}
    for family in SMOOTHING_FAMILIES:
        key = f"smoothing.{family}"
        is_family = names == key
        updates = tracer.counts[f"{key}.grid_updates"]
        family_self = float(self_time[is_family].sum())
        out[f"{key}.fits"] = int(is_family.sum())
        out[f"{key}.self_s"] = family_self
        out[f"{key}.grid_updates"] = updates
        out[f"{key}.ns_per_update"] = family_self * 1e9 / updates if updates else 0.0

    is_estimate = names == "groe.estimate_theta"
    is_otm = names == "theta.otm_forecast"
    under_groe = np.zeros(names.size, dtype=bool)
    under_groe[nested] = is_estimate[parent[nested]]
    candidate_fits = int((is_otm & under_groe).sum())
    out["groe.estimate_calls"] = int(is_estimate.sum())
    out["groe.self_s"] = self_s("groe.")
    out["groe.candidate_fits"] = candidate_fits
    out["groe.useful_ratio"] = tracer.counts["groe.selections"] / candidate_fits if candidate_fits else 0.0
    out["theta.otm_forecast_calls"] = int(is_otm.sum())
    out["theta.self_s"] = self_s("theta.")
    out["series.trend_calls"] = count("series.trend")
    out["series.trend_self_s"] = self_s("series.trend")

    tests = tracer.counts["seasonal.tests"]
    out["seasonal.calls"] = count("seasonal.")
    out["seasonal.self_s"] = self_s("seasonal.")
    out["seasonal.seasonal_share"] = tracer.counts["seasonal.positive"] / tests if tests else 0.0
    out["seasonal.repeat_ratio"] = tests / len(tracer.tested_series) if tracer.tested_series else 0.0

    samples = 0
    for method in methods:
        cell_ms = duration[names == f"pipeline.{method}"] * 1e3
        out[f"pipeline.{method}.cell_ms_p50"] = _percentile(cell_ms, 50)
        out[f"pipeline.{method}.cell_ms_p90"] = _percentile(cell_ms, 90)
        samples = max(samples, cell_ms.size)
    # every method of a workload runs on every series, so one count serves all
    out["pipeline.cells_per_method"] = samples
    out["pipeline.self_s"] = self_s("pipeline.")

    out["dataset.load_s"] = float(duration[names == "dataset.load"].sum())
    out["metrics.score_s"] = self_s("metrics.score")
    out["metrics.aggregate_s"] = self_s("metrics.aggregate")
    out["metrics.rank_s"] = self_s("metrics.rank")
    out["runner.self_s"] = self_s("runner.run_experiment")
    out["runner.write_s"] = self_s("runner.write")
    out["cli.self_s"] = self_s("cli.")

    attributed = float(self_time.sum())
    out["trace.spans"] = int(names.size)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    return out
