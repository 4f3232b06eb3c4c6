"""Batch experiment driver with deterministic, order-stable aggregation.

Per-series work is pure, so it can be farmed out to helper processes, in tasks
of ceil(entries / (4 * processes)) entries in a row; workers=1 runs the same
tasks in process. Each helper claims the next task index from one shared
counter and sends each finished task's :class:`TaskResult` back on its own
pipe, which the calling thread reads as they become ready, storing them by
task index; it runs no task and starts no thread. A task result is compact:
each cell's ``SeriesScore`` fields and ``scores.csv`` row, and, for the cells
that produced forecasts, their ``forecasts.csv`` rows and notes, the one
field a row lacks. Every row is formatted where its cell ran, and each
``ForecastResult`` is built and checked there, so the calling thread only
rebuilds the score objects, writes the rows it received, and reads
``ExperimentResult.forecasts`` back from the rows when it is first read. A
task's exception reaches the caller, as it does at workers=1. A
helper that ends before sending a claimed task's result (killed, or exiting
inside a method) costs only that task: once every helper has ended, each task
left without a result runs once more alone in a fresh helper, and if that one
dies too, the task's cells fail with an error that names its exit code. A
task is the list of its series'
:class:`~optitheta.pipeline.SeriesContext`, so each smoothing fit and GROE
forecast table is made for all of them at once and its time charged to them
by their lengths, each share in the cell that takes it, so the cell times of
a group still add up. A series' cells are scored together once they have
all run, by one ``smape`` and one ``mase`` call over their stacked forecasts,
so a cell's ``elapsed`` covers its own run alone. Results are merged back in
dataset order and folded sequentially, which makes every output file (timing
aside) identical for any worker count and task size.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

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
AGGREGATE_HEADER = "method,group,n_series,n_smape,n_mase,n_failed,smape_mean,mase_mean,elapsed_sec"
_EXIT_GRACE = 1.0  # seconds, see _in_helpers


@dataclass(frozen=True)
class ExperimentConfig:
    """Methods to run plus execution knobs."""

    methods: tuple[MethodSpec, ...]
    workers: int = 1
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("need at least one method to evaluate")
        if not float(self.workers).is_integer() or self.workers < 1:
            raise ValueError(f"worker count must be a positive integer, got {self.workers}")
        object.__setattr__(self, "workers", int(self.workers))
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"method names must be unique, got {names}")


# one (series, method) cell as its task makes it: its SeriesScore fields in
# order and, unless it failed, its forecasts
Cell = tuple[tuple, ForecastResult | None]


class TaskResult(NamedTuple):
    """A task's cells as its helper sends them back: each cell's ``SeriesScore``
    fields and ``scores.csv`` row, in dataset order, and, for the cells that
    produced forecasts, their ``forecasts.csv`` rows and notes."""

    scores: list[tuple]
    score_rows: list[str]
    forecast_rows: list[str]
    notes: list[str | None]

    @classmethod
    def of(cls, cells: list[Cell]) -> "TaskResult":
        scores = [score for score, _ in cells]
        results = [result for _, result in cells if result is not None]
        return cls(
            scores=scores,
            score_rows=[_csv_row([series_id, method, smape_value, mase_value, theta])
                        for series_id, _, method, smape_value, mase_value, theta, *_ in scores],
            forecast_rows=[forecast_row(fc) for fc in results],
            notes=[fc.note for fc in results],
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Every cell's score, the aggregate table and the average ranks of a run,
    with its tasks' results in dataset order, which the output files and
    ``forecasts`` are made from."""

    scores: tuple[SeriesScore, ...]
    table: tuple[AggregateRow, ...]
    rank_smape: dict[str, float] | None
    rank_mase: dict[str, float] | None
    _tasks: tuple[TaskResult, ...] = field(repr=False, compare=False)

    @cached_property
    def forecasts(self) -> tuple[ForecastResult, ...]:
        """The forecasts of every cell that produced them, in dataset order,
        read back from their rows when first read."""
        return tuple(read_forecast_row(row, note) for task in self._tasks
                     for row, note in zip(task.forecast_rows, task.notes))


def _task_size(entries: int, processes: int) -> int:
    # about four tasks per helper, so the helpers that finish first take the rest
    return -(-entries // (4 * processes))


def _evaluate_task(entries: list[DatasetEntry], methods: tuple[MethodSpec, ...]) -> TaskResult:
    # built here, in the worker, so the shared work is never pickled
    task: list[SeriesContext] = []
    for entry in entries:
        SeriesContext(entry.series, entry.h, methods, task)
    # no later batch needs a series, so its work is freed once its cells have run
    return TaskResult.of([cell for entry in entries
                          for cell in _evaluate_entry(entry, task.pop(0), methods)])


def _evaluate_entry(entry: DatasetEntry, context: SeriesContext,
                    methods: tuple[MethodSpec, ...]) -> list[Cell]:
    runs = []
    for spec in methods:
        result = error = None
        start = time.perf_counter()
        try:
            result = run_method(entry.series, entry.h, spec, context=context)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        runs.append((spec, result, error, time.perf_counter() - start + context.settle()))
    # every cell that produced forecasts is scored in one call per metric
    produced = [result.forecasts for _, result, _, _ in runs if result is not None]
    smapes = mases = [None] * len(produced)
    if produced:
        stacked = np.array(produced)
        smapes = smape(entry.actuals, stacked).tolist()
        try:
            mases = mase(entry.series.values, entry.actuals, stacked).tolist()
            mases = [m if np.isfinite(m) else None for m in mases]  # beyond the float range
        except UndefinedMetricError:
            pass
    scored = iter(zip(smapes, mases))
    out: list[Cell] = []
    for spec, result, error, elapsed in runs:
        smape_value, mase_value = (None, None) if result is None else next(scored)
        theta = None if result is None else result.theta
        out.append(((entry.series.id, entry.group, spec.name, smape_value, mase_value, theta,
                     elapsed, error), result))
    return out


def _serve(tasks: list[list[DatasetEntry]], methods: tuple[MethodSpec, ...], counter, conn) -> None:
    """A helper process: claim the next task index from ``counter`` until none
    is left, sending ``(index, cells)``, or ``(index, exception)`` and stop."""
    with conn:
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value = index + 1
            if index >= len(tasks):
                return
            try:
                cells = _evaluate_task(tasks[index], methods)
            except Exception as exc:
                conn.send((index, exc))
                return
            conn.send((index, cells))


def _in_helpers(tasks: list[list[DatasetEntry]], methods: tuple[MethodSpec, ...],
                processes: int) -> tuple[list[TaskResult | None], list[int]]:
    """Run ``tasks`` in at most ``processes`` helper processes, reading their
    pipes in this thread: each task's cells (None where the helper that
    claimed it ended first) and the helpers' exit codes. Once every pipe is
    read to its end, the helpers get ``_EXIT_GRACE`` seconds in all to exit
    on their own, so their at-exit work is not cut short. A task's exception
    is raised here, terminating them at once; no helper outlives the call."""
    from multiprocessing.connection import wait

    counter = multiprocessing.Value("i", 0)
    per_task: list[TaskResult | None] = [None] * len(tasks)
    helpers, readers = [], []
    grace = 0.0
    try:
        for _ in range(min(processes, len(tasks))):
            reader, writer = multiprocessing.Pipe(duplex=False)
            # under fork the tasks are inherited, not pickled
            helper = multiprocessing.Process(target=_serve, args=(tasks, methods, counter, writer),
                                             daemon=True)
            helper.start()
            writer.close()  # the helper holds the only writer, so its exit is the pipe's EOF
            helpers.append(helper)
            readers.append(reader)
        while readers:
            for reader in wait(readers):
                try:
                    index, cells = reader.recv()
                except (EOFError, OSError):  # the helper has ended, maybe mid-message
                    readers.remove(reader)
                    reader.close()
                    continue
                if isinstance(cells, Exception):
                    raise cells
                per_task[index] = cells
        grace = _EXIT_GRACE
    finally:
        deadline = time.monotonic() + grace
        for helper in helpers:
            helper.join(max(0.0, deadline - time.monotonic()))
            if helper.exitcode is None:
                helper.terminate()
            helper.join()
        for reader in readers:
            reader.close()
    return per_task, [helper.exitcode for helper in helpers]


def _lost_cells(entries: list[DatasetEntry], methods: tuple[MethodSpec, ...], code: int) -> TaskResult:
    error = f"HelperDied: the process running this series' task exited with code {code}"
    return TaskResult.of([((entry.series.id, entry.group, spec.name, None, None, None, 0.0, error), None)
                          for entry in entries for spec in methods])


def _rank_table(scores: tuple[SeriesScore, ...], methods: list[str],
                attr: str) -> dict[str, float] | None:
    """Average ranks over the series every method scored.

    ``scores`` holds each series' cells in ``methods`` order, a None score
    read as NaN. Ranking is refused (None) when a cell failed or when no
    series is scored at all, and a series is ranked only when every method
    scored it (MASE is undefined on a constant series or beyond the float range).
    """
    if any(s.error is not None for s in scores):
        return None
    values = np.array([getattr(s, attr) for s in scores], dtype=np.float64).reshape(-1, len(methods))
    rows = values[~np.isnan(values).any(axis=1)]
    return average_ranks(dict(zip(methods, rows.T))) if rows.size else None


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> ExperimentResult:
    """Forecast and score every (series, method) cell, then aggregate.

    A method failing on a series yields a score row with an error message
    and no metrics; the batch never aborts. Output files are written when
    ``config.out_dir`` is set.
    """
    entries = list(dataset)
    processes = max(1, min(config.workers, len(entries)))
    size = _task_size(len(entries), processes)
    tasks = [entries[i : i + size] for i in range(0, len(entries), size)]
    methods = tuple(config.methods)
    if processes > 1:
        per_task, _ = _in_helpers(tasks, methods, processes)
        for i, cells in enumerate(per_task):
            if cells is None:  # its helper died: run it once more, alone
                (cells,), (code,) = _in_helpers([tasks[i]], methods, 1)
                per_task[i] = _lost_cells(tasks[i], methods, code) if cells is None else cells
    else:
        per_task = [_evaluate_task(task, methods) for task in tasks]
    scores = tuple(SeriesScore(*fields) for cells in per_task for fields in cells.scores)
    method_names = [m.name for m in config.methods]
    result = ExperimentResult(
        scores=scores,
        table=tuple(aggregate_scores(scores)),
        rank_smape=_rank_table(scores, method_names, "smape"),
        rank_mase=_rank_table(scores, method_names, "mase"),
        _tasks=tuple(per_task),
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


def _csv_row(fields) -> str:
    return ",".join(map(_fmt, fields))


def forecast_row(fc: ForecastResult) -> str:
    """One forecasts row (see ``FORECASTS_HEADER``), shared by ``evaluate`` and ``forecast``."""
    # repr of each Python float, as _fmt gives, without a call per value
    return ",".join([_csv_row([fc.series_id, fc.method, fc.theta, int(fc.seasonal)]),
                     *map(repr, fc.forecasts.tolist())])


def read_forecast_row(row: str, note: str | None) -> ForecastResult:
    """The ``ForecastResult`` of :func:`forecast_row`'s ``row`` and ``note``, bit for bit: a
    float's repr reads back as that float, and ``check_field`` keeps commas out of the names."""
    series_id, method, theta, seasonal, *values = row.split(",")
    return ForecastResult(series_id, method, list(map(float, values)),
                          float(theta) if theta else None, seasonal == "1", note)


def write_outputs(result: ExperimentResult, out_dir) -> dict[str, Path]:
    """Write scores, aggregate table, forecasts, and (when complete) ranks.

    The scores and forecasts rows are those the tasks formatted where they ran.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "scores": (SCORES_FILE, "id,method,smape,mase,theta_hat",
                   [row for cells in result._tasks for row in cells.score_rows]),
        "aggregate": (AGGREGATE_FILE, AGGREGATE_HEADER, [
            _csv_row([row.method, row.group, row.n_series, row.n_smape, row.n_mase, row.n_failed,
                      row.smape_mean, row.mase_mean, f"{row.elapsed:.3f}"]) for row in result.table
        ]),
        "forecasts": (FORECASTS_FILE, FORECASTS_HEADER,
                      [row for cells in result._tasks for row in cells.forecast_rows]),
    }
    if result.rank_smape is not None:
        mase_ranks = result.rank_mase or {}
        tables["ranks"] = (RANKS_FILE, "method,rank_smape,rank_mase", [
            _csv_row([method, rank, mase_ranks.get(method)])
            for method, rank in result.rank_smape.items()
        ])
    else:
        # without this, a rank table an earlier run left here would look current
        (out_dir / RANKS_FILE).unlink(missing_ok=True)
    paths: dict[str, Path] = {}
    for key, (name, header, rows) in tables.items():
        paths[key] = out_dir / name
        paths[key].write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return paths
