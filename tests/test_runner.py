import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import rankdata

from optitheta import (
    Dataset,
    ExperimentConfig,
    ForecastResult,
    MethodSpec,
    TimeSeries,
    run_experiment,
    run_method,
    synthetic_dataset,
    write_outputs,
)
from optitheta import groe, metrics, pipeline, runner, smoothing
from optitheta.dataset import DatasetEntry, check_field


def constant_dataset():
    entries = []
    for i in range(4):
        entries.append(
            DatasetEntry(
                series=TimeSeries(f"c{i}", np.full(20, 5.0)),
                actuals=np.full(6, 5.0),
                group="Yearly",
            )
        )
    return Dataset(entries=tuple(entries))


def test_constant_corpus_scores():
    config = ExperimentConfig(
        methods=(MethodSpec.benchmark("naive"), MethodSpec.benchmark("ses"))
    )
    result = run_experiment(constant_dataset(), config)
    assert all(s.smape == 0.0 for s in result.scores)
    assert all(s.mase is None for s in result.scores)  # undefined, excluded
    for row in result.table:
        assert row.smape_mean == 0.0
        assert row.mase_mean is None and row.n_mase == 0


def test_single_series_single_method_table_equals_score():
    ds = synthetic_dataset(3, {"Quarterly": 1})
    config = ExperimentConfig(methods=(MethodSpec.classic_theta(),))
    result = run_experiment(ds, config)
    assert len(result.scores) == 1
    score = result.scores[0]
    rows = {r.group: r for r in result.table}
    assert rows["Quarterly"].smape_mean == pytest.approx(score.smape)
    assert rows["All"].smape_mean == pytest.approx(score.smape)
    assert rows["All"].n_series == 1


def test_aggregate_cross_checked_against_scores():
    ds = synthetic_dataset(11, {"Yearly": 8, "Quarterly": 5, "Monthly": 3, "Other": 4})
    methods = (MethodSpec.classic_theta(),) + tuple(
        MethodSpec.otm(a) for a in ("a", "b", "c", "d", "e", "f", "g", "h")
    )
    result = run_experiment(ds, ExperimentConfig(methods=methods))
    # independent aggregation: plain dict folding over the score rows
    for row in result.table:
        wanted = [
            s
            for s in result.scores
            if s.method == row.method and (row.group == "All" or s.group == row.group)
        ]
        smapes = [s.smape for s in wanted if s.smape is not None]
        mases = [s.mase for s in wanted if s.mase is not None]
        assert row.n_series == len(wanted)
        assert row.smape_mean == pytest.approx(sum(smapes) / len(smapes), rel=1e-12)
        assert row.mase_mean == pytest.approx(sum(mases) / len(mases), rel=1e-12)
    assert {s.method for s in result.scores} == {m.name for m in methods}


def test_worker_invariance_smoke():
    ds = synthetic_dataset(5, {"Yearly": 6, "Other": 6})
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.benchmark("naive"))
    serial = run_experiment(ds, ExperimentConfig(methods=methods, workers=1))
    pooled = run_experiment(ds, ExperimentConfig(methods=methods, workers=3))
    strip = lambda s: (s.series_id, s.method, s.smape, s.mase, s.theta)  # noqa: E731
    assert [strip(s) for s in serial.scores] == [strip(s) for s in pooled.scores]
    for a, b in zip(serial.forecasts, pooled.forecasts):
        assert np.array_equal(a.forecasts, b.forecasts)


def test_helpers_are_no_more_than_the_series_count(monkeypatch):
    started = []

    class CountedProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(runner.multiprocessing, "Process", CountedProcess)
    ds = synthetic_dataset(5, {"Yearly": 3, "Other": 2})
    methods = (MethodSpec.classic_theta(), MethodSpec.benchmark("naive"))
    serial = run_experiment(ds, ExperimentConfig(methods=methods, workers=1))
    assert started == []  # one worker runs in process
    pooled = run_experiment(ds, ExperimentConfig(methods=methods, workers=64))
    assert len(started) == 5
    assert [f.forecasts.tobytes() for f in pooled.forecasts] == [
        f.forecasts.tobytes() for f in serial.forecasts]


forking = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                             reason="the helpers see a patched runner only when forked")


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@forking
def test_a_dying_helper_fails_only_its_own_task(monkeypatch, tmp_path):
    ds = synthetic_dataset(5, {"Yearly": 4, "Other": 4})
    methods = (MethodSpec.classic_theta(), MethodSpec.benchmark("naive"), MethodSpec.benchmark("ses"))
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: 2)
    serial = run_experiment(ds, ExperimentConfig(methods=methods, workers=1, out_dir=tmp_path / "serial"))
    original = runner._evaluate_entry
    victim = ds.entries[4].series.id

    def dying(entry, context, methods):
        if entry.series.id == victim:
            os._exit(7)
        return original(entry, context, methods)

    monkeypatch.setattr(runner, "_evaluate_entry", dying)
    with deadline(60):
        pooled = run_experiment(ds, ExperimentConfig(methods=methods, workers=2,
                                                     out_dir=tmp_path / "pooled"))
    assert multiprocessing.active_children() == []
    # tasks are pairs of series in a row, so the victim's task is entries 4 and 5
    lost = {ds.entries[i].series.id for i in (4, 5)}
    assert [(s.series_id, s.method) for s in pooled.scores] == [(s.series_id, s.method) for s in serial.scores]
    for before, after in zip(serial.scores, pooled.scores):
        if after.series_id in lost:
            assert after.smape is None and after.mase is None
            assert after.error is not None and "exited with code 7" in after.error
        else:
            assert replace(after, elapsed=0.0) == replace(before, elapsed=0.0)
    kept = [(f.series_id, f.method, f.forecasts.tobytes()) for f in serial.forecasts if f.series_id not in lost]
    assert [(f.series_id, f.method, f.forecasts.tobytes()) for f in pooled.forecasts] == kept
    # the written files hold the lost cells' error rows in place, and no forecasts of them
    def read(run, name):
        return (tmp_path / run / name).read_text(encoding="utf-8").splitlines()

    assert read("pooled", "scores.csv") == [
        ",".join(row.split(",")[:2]) + ",,," if row.split(",")[0] in lost else row
        for row in read("serial", "scores.csv")]
    assert read("pooled", "forecasts.csv") == [
        row for row in read("serial", "forecasts.csv") if row.split(",")[0] not in lost]


@forking
def test_a_task_exception_reaches_the_caller_as_at_one_worker(monkeypatch):
    ds = synthetic_dataset(3, {"Yearly": 3, "Other": 3})
    original = runner._evaluate_entry

    def raising(entry, context, methods):
        if entry.series.id == ds.entries[3].series.id:
            raise LookupError(f"planted on {entry.series.id}")
        return original(entry, context, methods)

    monkeypatch.setattr(runner, "_evaluate_entry", raising)
    raised = []
    for workers in (1, 2):
        with deadline(60), pytest.raises(LookupError) as info:
            run_experiment(ds, ExperimentConfig(methods=(MethodSpec.benchmark("naive"),), workers=workers))
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (LookupError, f"planted on {ds.entries[3].series.id}")
    assert multiprocessing.active_children() == []


def test_the_calling_process_builds_forecasts_only_when_they_are_read(monkeypatch, tmp_path):
    # a task sends back its rows and notes, never a pickled ForecastResult;
    # result.forecasts reads the rows back on first read, bit for bit as at one worker
    loads = []

    def setstate(self, state):
        loads.append(state["series_id"])
        self.__dict__.update(state)

    monkeypatch.setattr(ForecastResult, "__setstate__", setstate, raising=False)
    entries = [*synthetic_dataset(8, {"Yearly": 3, "Quarterly": 2, "Monthly": 2, "Other": 1}),
               DatasetEntry(TimeSeries("short", np.arange(1.0, 6.0)), np.ones(6), "Other"),
               DatasetEntry(TimeSeries("one", [4.0]), np.ones(3), "Other")]
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.benchmark("naive2"),
               MethodSpec.benchmark("holt_winters"))
    ds = Dataset(tuple(entries))
    serial = run_experiment(ds, ExperimentConfig(methods=methods, workers=1))
    with deadline(60):
        pooled = run_experiment(ds, ExperimentConfig(methods=methods, workers=2, out_dir=tmp_path / "run"))
    assert loads == []
    forecasts = pooled.forecasts
    assert type(forecasts) is tuple and pooled.forecasts is forecasts and loads == []

    def cell(fc):
        return fc.series_id, fc.method, fc.theta, fc.seasonal, fc.note, fc.forecasts.tobytes()

    assert [cell(fc) for fc in forecasts] == [cell(fc) for fc in serial.forecasts]
    # the rows written where the cells ran, and the cells run alone, hold the same
    rows = (tmp_path / "run" / "forecasts.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [runner.forecast_row(fc) for fc in forecasts] == rows
    alone = [run_method(entry.series, entry.h, spec) for entry in entries[:-1] for spec in methods]
    assert [cell(fc) for fc in forecasts] == [cell(fc) for fc in alone]
    assert {s.series_id for s in pooled.scores if s.error} == {"one"}  # every method fails on it
    assert len(forecasts) == (len(ds) - 1) * len(methods)
    assert any(fc.note for fc in forecasts) and any(fc.seasonal for fc in forecasts)
    assert not any(fc.forecasts.flags.writeable for fc in forecasts)
    again = write_outputs(pooled, tmp_path / "again")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(p.name for p in again.values())
    for path in again.values():
        assert path.read_bytes() == (tmp_path / "run" / path.name).read_bytes(), path.name


OUTPUT_FILES = ("forecasts.csv", "scores.csv", "ranks.csv")


def timeless_outputs(out_dir):
    """The output files, aggregate.csv without its elapsed_sec column."""
    rows = (out_dir / "aggregate.csv").read_text(encoding="utf-8").splitlines()
    aggregate = "".join(row.rsplit(",", 1)[0] + "\n" for row in rows)
    return [(out_dir / name).read_bytes() for name in OUTPUT_FILES] + [aggregate.encode()]


def test_outputs_equal_for_any_worker_count_and_task_size(monkeypatch, tmp_path):
    ds = synthetic_dataset(4, {"Yearly": 3, "Quarterly": 2, "Monthly": 2, "Other": 2})
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.otm("d", grid=(1.0, 3.0)),
               MethodSpec.benchmark("naive2"), MethodSpec.benchmark("ses"))
    default = runner._task_size
    outputs = {}
    for workers in (1, 2, 3):
        for size in (1, 3, None):
            monkeypatch.setattr(runner, "_task_size", default if size is None else lambda *_: size)
            out_dir = tmp_path / f"w{workers}-{size}"
            run_experiment(ds, ExperimentConfig(methods=methods, workers=workers, out_dir=out_dir))
            outputs[workers, size] = timeless_outputs(out_dir)
    assert all(files == outputs[1, 1] for files in outputs.values())


START_METHOD_SCRIPT = """
import multiprocessing
import sys
from pathlib import Path

from optitheta import ExperimentConfig, MethodSpec, run_experiment, synthetic_dataset


def cell(fc):
    return fc.series_id, fc.method, fc.theta, fc.seasonal, fc.note, fc.forecasts.tobytes()


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    out = Path(sys.argv[2])
    ds = synthetic_dataset(5, {"Yearly": 4, "Quarterly": 3, "Monthly": 3, "Other": 2})
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.benchmark("naive2"),
               MethodSpec.benchmark("ses"), MethodSpec.benchmark("holt_winters", name="holt-winters"))
    cells = {}
    for workers in (1, 2):
        result = run_experiment(ds, ExperimentConfig(methods=methods, workers=workers,
                                                     out_dir=out / f"w{workers}"))
        assert multiprocessing.active_children() == [], workers
        cells[workers] = [cell(fc) for fc in result.forecasts]
    assert cells[1] == cells[2] and len(cells[1]) == len(ds) * len(methods)
    for name in ("forecasts.csv", "scores.csv", "ranks.csv"):
        assert (out / "w1" / name).read_bytes() == (out / "w2" / name).read_bytes(), name
    print(multiprocessing.get_start_method())
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_outputs_equal_at_two_workers_under_start_method(method, tmp_path):
    # without fork the helpers get their tasks pickled, not inherited
    script = tmp_path / "run.py"
    script.write_text(START_METHOD_SCRIPT, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(runner.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(script), method, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [method]


def test_cells_equal_for_any_corpus_order():
    # a permutation changes which series share a task and an SES pack of one
    # smoothing search, so a batch that leaks between its members shows here
    ds = synthetic_dataset(7, {"Yearly": 12, "Quarterly": 12, "Monthly": 10, "Other": 6})
    order = np.random.default_rng(2).permutation(len(ds))
    assert order.tolist() != list(range(len(ds)))
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.otm("d"),
               *(MethodSpec.benchmark(family) for family in ("ses", "naive2", "holt")))
    cells, tables = [], []
    for data in (ds, Dataset(tuple(ds.entries[i] for i in order))):
        result = run_experiment(data, ExperimentConfig(methods=methods, workers=1))
        forecasts = {(f.series_id, f.method): f.forecasts.tobytes() for f in result.forecasts}
        cells.append({(s.series_id, s.method): (forecasts[s.series_id, s.method], s.theta, s.smape, s.mase)
                      for s in result.scores})
        # the aggregate means and ranks too, every field but the wall time
        tables.append(([replace(row, elapsed=0.0) for row in result.table],
                       result.rank_smape, result.rank_mase))
    assert len(cells[0]) == len(ds) * len(methods) == 240
    assert cells[0] == cells[1]
    assert len(tables[0][0]) == 5 * len(methods) and tables[0][1] is not None
    assert tables[0] == tables[1]


def test_a_failing_series_fails_only_its_own_cells(monkeypatch):
    # one task holds every series, so each batched fit includes the ones
    # that fail; each failure stays in the cells that would fail alone
    entries = [*synthetic_dataset(6, {"Yearly": 2, "Quarterly": 1, "Monthly": 1, "Other": 0}),
               DatasetEntry(TimeSeries("short", [4.0]), np.ones(3), "Other"),
               DatasetEntry(TimeSeries("wild", [1e200, -1e200] * 5), np.ones(3), "Other"),
               DatasetEntry(TimeSeries("flat", np.full(12, 3.0)), np.ones(3), "Other"),
               # its theta line overflows, so the batch cannot even build its input
               DatasetEntry(TimeSeries("huge", np.linspace(1e308, 1.4e308, 8)), np.ones(3), "Other")]
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a", grid=(1.0,)), MethodSpec.otm("b"),
               MethodSpec.benchmark("ses"), MethodSpec.benchmark("naive"))
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    result = run_experiment(Dataset(tuple(entries)), ExperimentConfig(methods=methods))
    cells = iter(result.forecasts)
    failed = {}
    for entry in entries:
        for spec in methods:
            try:
                alone = run_method(entry.series, entry.h, spec)
            except Exception as exc:
                failed[entry.series.id, spec.name] = f"{type(exc).__name__}: {exc}"
                continue
            assert next(cells).forecasts.tobytes() == alone.forecasts.tobytes()
    assert {("wild", "ses"), ("short", "ses"), ("short", "theta"), ("huge", "theta")} <= set(failed)
    assert {(s.series_id, s.method): s.error for s in result.scores if s.error is not None} == failed


def test_a_batch_is_charged_to_its_series_by_length(monkeypatch):
    # the three ses fits are one batch; each cell pays the batch's time in
    # proportion to its series' length, not the first cell for all three
    original = smoothing.fit_all

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(smoothing, "fit_all", slow)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    lengths = (10, 20, 30)
    ds = Dataset(tuple(DatasetEntry(TimeSeries(f"s{n}", np.arange(1.0, n + 1)), np.ones(2), "Other")
                       for n in lengths))
    result = run_experiment(ds, ExperimentConfig(methods=(MethodSpec.benchmark("ses"),)))
    for score, n in zip(result.scores, lengths):
        share = 0.3 * n / sum(lengths)
        assert share <= score.elapsed < share + 0.05, score.series_id


def test_a_batch_charges_no_share_to_a_series_whose_input_fails(monkeypatch):
    # the theta line of "huge" overflows, so the batched fit of the theta lines
    # runs on the other two series, which share its time by their lengths
    original = smoothing.fit_all

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(smoothing, "fit_all", slow)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    huge = DatasetEntry(TimeSeries("huge", np.linspace(1e308, 1.4e308, 8)), np.ones(3), "Other")
    walks = [DatasetEntry(TimeSeries(f"s{n}", np.arange(1.0, n + 1)), np.ones(2), "Other") for n in (10, 20)]
    ds = Dataset((walks[0], huge, walks[1]))
    result = run_experiment(ds, ExperimentConfig(methods=(MethodSpec.classic_theta(),)))
    elapsed = {score.series_id: score.elapsed for score in result.scores}
    assert [score.error is None for score in result.scores] == [True, False, True]
    assert elapsed["huge"] < 0.05
    for n in (10, 20):
        share = 0.3 * n / 30
        assert share <= elapsed[f"s{n}"] < share + 0.05, n


def test_a_seasonal_fit_is_made_alone_in_its_own_cell(monkeypatch, make_seasonal):
    # no context plans a seasonal family's fit, since its season is only known
    # once the series is tested; the cell that asks for the fit makes it alone
    log = []
    for module, name in ((runner, "run_method"), (smoothing, "fit_all")):
        original = getattr(module, name)

        def logging(*args, _name=name, _original=original, **kwargs):
            log.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, logging)
    series = make_seasonal(3, 48, [0.7, 1.3, 0.9, 1.1], noise=0.02)
    ds = Dataset((DatasetEntry(series, np.full(4, 250.0), "Quarterly"),))
    methods = (MethodSpec.benchmark("holt_winters", name="holt-winters"),)
    result = run_experiment(ds, ExperimentConfig(methods=methods))
    assert log == ["run_method", "fit_all"]
    assert result.scores[0].error is None and result.forecasts[0].seasonal


def test_a_task_makes_each_fit_for_all_its_series_at_once(monkeypatch):
    # the ses token's fit of the series and classic Theta's fit of the theta
    # line are each one fit_all call over every series of the task that asks
    calls = []
    original = smoothing.fit_all

    def counting(spec, series, *args, **kwargs):
        calls.append((spec.family, len(series)))
        return original(spec, series, *args, **kwargs)

    monkeypatch.setattr(smoothing, "fit_all", counting)
    ds = synthetic_dataset(7, {"Yearly": 4, "Quarterly": 0, "Monthly": 0, "Other": 3})
    methods = (MethodSpec.classic_theta(), MethodSpec.benchmark("ses"), MethodSpec.otm("a"))
    for size in (len(ds), 3):
        calls.clear()
        monkeypatch.setattr(runner, "_task_size", lambda entries, processes, size=size: size)
        result = run_experiment(ds, ExperimentConfig(methods=methods))
        assert all(s.error is None for s in result.scores)
        tasks = [min(size, len(ds) - start) for start in range(0, len(ds), size)]
        assert calls == [("ses", members) for members in tasks for _ in range(2)]


def test_a_task_builds_each_table_for_all_its_series_at_once(monkeypatch):
    # the first selecting cell of a task builds the SES GROE table of every
    # series of the task in one forecast_tables call
    calls = []
    original = pipeline.forecast_tables

    def counting(members, *args):
        calls.append(len(members))
        return original(members, *args)

    monkeypatch.setattr(pipeline, "forecast_tables", counting)
    ds = synthetic_dataset(7, {"Yearly": 4, "Quarterly": 2, "Monthly": 2, "Other": 3})
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.otm("h"))
    for size in (len(ds), 3):
        calls.clear()
        monkeypatch.setattr(runner, "_task_size", lambda entries, processes, size=size: size)
        result = run_experiment(ds, ExperimentConfig(methods=methods))
        assert all(s.error is None for s in result.scores)
        assert calls == [min(size, len(ds) - start) for start in range(0, len(ds), size)]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=forking)])
def test_a_batch_that_raises_as_a_whole_fails_each_member_once(monkeypatch, tmp_path, workers):
    # a forecast_tables call that raises outside its per-member handling is made once
    # for the task and fails every cell that takes its table; the other cells run as alone
    calls = tmp_path / "calls"

    def failing(*args):
        with calls.open("a") as log:  # a file, so a helper's calls are counted too
            log.write("call\n")
        raise MemoryError("planted")

    monkeypatch.setattr(pipeline, "forecast_tables", failing)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    ds = synthetic_dataset(4, {"Yearly": 2, "Quarterly": 2, "Monthly": 2, "Other": 0})
    methods = (MethodSpec.otm("a"), MethodSpec.otm("d"), MethodSpec.benchmark("naive"))
    result = run_experiment(ds, ExperimentConfig(methods=methods, workers=workers))
    assert calls.read_text() == "call\n"
    assert len(ds) == 6 and len(result.scores) == 18
    cells = iter(result.forecasts)
    for score in result.scores:
        if score.method == "naive":
            entry = next(e for e in ds if e.series.id == score.series_id)
            alone = run_method(entry.series, entry.h, methods[2])
            assert score.error is None and next(cells).forecasts.tobytes() == alone.forecasts.tobytes()
        else:
            assert score.error == "MemoryError: planted", (score.series_id, score.method)


def test_a_task_makes_its_tables_and_fits_before_its_first_cell(monkeypatch):
    log = []
    for module, name in ((runner, "run_method"), (pipeline, "forecast_tables"), (smoothing, "fit_all")):
        original = getattr(module, name)

        def logging(*args, _name=name, _original=original, **kwargs):
            log.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, logging)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    ds = synthetic_dataset(8, {"Yearly": 2, "Quarterly": 2, "Monthly": 2, "Other": 1})
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.benchmark("naive"),
               MethodSpec.benchmark("ses"))
    result = run_experiment(ds, ExperimentConfig(methods=methods))
    assert all(s.error is None for s in result.scores)
    first = log.index("run_method")
    assert {"forecast_tables", "fit_all"} <= set(log[:first])
    assert set(log[first:]) == {"run_method"}


def test_a_pack_is_charged_to_its_series_by_length(monkeypatch):
    # the three tables are one pack; each selecting cell pays the pack's time
    # in proportion to its series' length, not the first cell for all three
    original = pipeline.forecast_tables

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "forecast_tables", slow)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    lengths = (10, 20, 30)
    ds = Dataset(tuple(DatasetEntry(TimeSeries(f"s{n}", np.arange(1.0, n + 1)), np.ones(2), "Other")
                       for n in lengths))
    result = run_experiment(ds, ExperimentConfig(methods=(MethodSpec.otm("a"),)))
    for score, n in zip(result.scores, lengths):
        assert score.error is None, score.error
        share = 0.3 * n / sum(lengths)
        assert share <= score.elapsed < share + 0.05, score.series_id


def test_a_failed_table_fails_only_its_own_cells(monkeypatch):
    # one task, so one pack holds every table; a series whose table
    # preparation raises, and one whose theta line has no finite SSE at n,
    # fail only their own cells, and every other cell is the cell alone
    entries = [*synthetic_dataset(9, {"Yearly": 3, "Quarterly": 2, "Monthly": 2, "Other": 2})]
    walk = entries[0]
    huge = TimeSeries("huge", np.ldexp(walk.series.values, 530))
    entries.insert(2, DatasetEntry(huge, walk.actuals, walk.group))
    target = entries[4].series.id
    original = groe._prepare

    def failing(series, *args):
        if series.id == target:
            raise RuntimeError("table failed")
        return original(series, *args)

    monkeypatch.setattr(groe, "_prepare", failing)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.otm("e", cost="sape"),
               MethodSpec.benchmark("naive"))
    result = run_experiment(Dataset(tuple(entries)), ExperimentConfig(methods=methods))
    cells = iter(result.forecasts)
    failed = {}
    for entry in entries:
        for spec in methods:
            try:
                alone = run_method(entry.series, entry.h, spec)
            except Exception as exc:
                failed[entry.series.id, spec.name] = f"{type(exc).__name__}: {exc}"
                continue
            assert next(cells).forecasts.tobytes() == alone.forecasts.tobytes()
    assert {(s.series_id, s.method): s.error for s in result.scores if s.error is not None} == failed
    assert {key for key, error in failed.items() if "table failed" in error} == {
        (target, "otm-a"), (target, "otm-e")}
    assert {("huge", "otm-a"), ("huge", "otm-e")} <= set(failed)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the helpers inherit the patched _serve only under fork")
def test_helpers_that_closed_their_pipes_exit_on_their_own(monkeypatch, tmp_path):
    # work a helper does after its pipe's EOF (as at-exit handlers do) is not
    # cut short by a terminate: every helper leaves its marker
    original = runner._serve

    def serve(*args):
        original(*args)
        time.sleep(0.1)
        (tmp_path / f"helper-{os.getpid()}").write_text("done")

    monkeypatch.setattr(runner, "_serve", serve)
    ds = synthetic_dataset(3, {"Yearly": 4, "Quarterly": 3, "Monthly": 2, "Other": 2})
    result = run_experiment(ds, ExperimentConfig(methods=(MethodSpec.benchmark("naive"),), workers=2))
    assert all(s.error is None for s in result.scores)
    assert len([p for p in tmp_path.iterdir() if p.read_text() == "done"]) == 2


def test_a_task_frees_each_series_once_its_cells_ran(monkeypatch):
    # a task of the whole corpus holds no series' tables beyond its own cells
    refs, alive = [], []
    original = runner.run_method

    def watching(series, h, spec, *, context):
        if not refs or refs[-1]() is not context:
            refs.append(weakref.ref(context))
        alive.append(sum(ref() is not None for ref in refs))
        return original(series, h, spec, context=context)

    monkeypatch.setattr(runner, "run_method", watching)
    monkeypatch.setattr(runner, "_task_size", lambda entries, processes: entries)
    ds = synthetic_dataset(2, {"Yearly": 3, "Quarterly": 2, "Monthly": 0, "Other": 1})
    run_experiment(ds, ExperimentConfig(methods=(MethodSpec.classic_theta(), MethodSpec.otm("a"))))
    assert len(refs) == len(ds) and alive == [1] * (2 * len(ds))


def test_a_series_is_scored_in_one_call_per_metric(monkeypatch):
    # one cell of Y1 fails, and every cell of Y2; the other cells score as
    # their own one-row calls would, MASE included where it is undefined
    original = runner.run_method

    def failing(series, h, spec, *, context):
        if (series.id, spec.name) == ("Y1", "ses") or series.id == "Y2":
            raise RuntimeError("planted")
        return original(series, h, spec, context=context)

    calls = []

    def counting(actuals, forecasts):
        calls.append(np.shape(forecasts))
        return metrics.smape(actuals, forecasts)

    monkeypatch.setattr(runner, "run_method", failing)
    monkeypatch.setattr(runner, "smape", counting)
    flat = DatasetEntry(TimeSeries("flat", np.full(12, 3.0)), np.array([3.0, 4.0, 2.0]), "Other")
    entries = [*synthetic_dataset(5, {"Yearly": 3, "Quarterly": 1, "Monthly": 1}), flat]
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.benchmark("naive2"),
               MethodSpec.benchmark("ses"))
    result = run_experiment(Dataset(tuple(entries)), ExperimentConfig(methods=methods))
    forecasts = {(fc.series_id, fc.method): fc.forecasts for fc in result.forecasts}
    scores = iter(result.scores)
    for entry in entries:
        for spec in methods:
            score = next(scores)
            cell = forecasts.get((entry.series.id, spec.name))
            assert (cell is None) == (score.error is not None)
            if cell is None:
                assert score.smape is None and score.mase is None
                continue
            assert score.smape == metrics.smape(entry.actuals, cell)
            try:
                assert score.mase == metrics.mase(entry.series.values, entry.actuals, cell)
            except metrics.UndefinedMetricError:
                assert score.mase is None and entry is flat
    assert {(s.series_id, s.method) for s in result.scores if s.error} == {
        ("Y1", "ses"), *(("Y2", spec.name) for spec in methods)
    }
    cells = {entry.series.id: sum(sid == entry.series.id for sid, _ in forecasts) for entry in entries}
    assert calls == [(cells[entry.series.id], entry.h) for entry in entries if cells[entry.series.id]]


FORECAST_VALUES = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 2.5e-8, 0.1, 1 / 3, -0.0, 0.0,
                   -7.25, 123456789.0, 1e16, 1.8e307, 1.7976931348623157e308]


@example(FORECAST_VALUES, None, False)
@example(FORECAST_VALUES, 2.0, True)
@example(FORECAST_VALUES, 1.5, False)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
       st.sampled_from([None, 2.0, 1.5]), st.booleans())
def test_forecast_rows_equal_the_per_value_form(values, theta, seasonal):
    fc = ForecastResult("S1", "otm-a", np.array(values), theta, seasonal)
    old = runner._csv_row([fc.series_id, fc.method, fc.theta, int(fc.seasonal), *fc.forecasts.tolist()])
    assert runner.forecast_row(fc) == old


def accepted_field(value):
    try:
        check_field(value, "cell", "a field")
    except ValueError:
        return False
    return True


def float_bits(value):
    return None if value is None else np.float64(value).tobytes()


@example(ForecastResult("S1", "otm-a", np.array(FORECAST_VALUES), -0.0, True, "a, b\nc"))
@example(ForecastResult("", "naive", np.array([-1.7976931348623157e308]), 5e-324, False, ","))
@given(st.builds(ForecastResult,
                 st.text(max_size=8).filter(accepted_field),
                 st.text(max_size=8).filter(accepted_field),
                 st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24)
                 .map(np.array),
                 st.none() | st.floats(allow_nan=False, allow_infinity=False),
                 st.booleans(),
                 st.none() | st.text(alphabet=st.sampled_from("ab ,\n\r\u2028"), max_size=12)))
def test_a_forecast_row_reads_back_bit_for_bit(fc):
    back = runner.read_forecast_row(runner.forecast_row(fc), fc.note)
    assert back.forecasts.tobytes() == fc.forecasts.tobytes()
    assert not back.forecasts.flags.writeable
    assert float_bits(back.theta) == float_bits(fc.theta)
    assert (back.series_id, back.method, back.seasonal, back.note) == (
        fc.series_id, fc.method, fc.seasonal, fc.note)


def test_failures_recorded_not_fatal():
    entries = (
        DatasetEntry(
            series=TimeSeries("ok", np.arange(1.0, 21.0)), actuals=np.full(4, 20.0), group="Other"
        ),
        DatasetEntry(
            series=TimeSeries("tiny", np.array([1.0, 2.0])), actuals=np.full(4, 2.0), group="Other"
        ),
    )
    methods = (MethodSpec.classic_theta(), MethodSpec.benchmark("naive"))
    result = run_experiment(Dataset(entries=entries), ExperimentConfig(methods=methods))
    failed = [s for s in result.scores if s.error is not None]
    assert len(failed) == 1 and failed[0].series_id == "tiny" and failed[0].method == "theta"
    # incomplete matrix: ranks refused
    assert result.rank_smape is None
    rows = {(r.method, r.group) for r in result.table}
    assert ("theta", "All") in rows


def test_overflowing_fit_recorded_as_failed_cell():
    entry = DatasetEntry(
        series=TimeSeries("wild", [1e200, -1e200] * 5), actuals=np.full(6, 1.0), group="Yearly"
    )
    config = ExperimentConfig(methods=(MethodSpec.benchmark("ses"),))
    result = run_experiment(Dataset(entries=(entry,)), config)
    (score,) = result.scores
    assert score.smape is None and "no finite in-sample SSE" in score.error
    assert result.forecasts == ()


def test_non_finite_forecast_recorded_as_failed_cell(monkeypatch):
    monkeypatch.setattr(smoothing, "forecast", lambda fitted, h: np.full(h, np.nan))
    ds = synthetic_dataset(2, {"Yearly": 2})
    config = ExperimentConfig(methods=(MethodSpec.benchmark("ses"),), workers=1)
    result = run_experiment(ds, config)
    assert len(result.scores) == 2
    for score in result.scores:
        assert score.smape is None and score.mase is None
        assert "non-finite forecast" in score.error
    assert result.forecasts == ()


def test_ranks_when_complete():
    ds = synthetic_dataset(6, {"Yearly": 5, "Other": 3})
    methods = (MethodSpec.classic_theta(), MethodSpec.benchmark("naive"))
    result = run_experiment(ds, ExperimentConfig(methods=methods))
    assert result.rank_smape is not None
    values = list(result.rank_smape.values())
    assert np.mean(values) == pytest.approx(1.5)  # (K+1)/2 for K=2


def test_mase_is_defined_for_every_method_of_a_series_or_for_none():
    # _rank_table relies on this: a series without a failed cell is scored by
    # every method or by none, so no rank row is ever partly defined
    flat = DatasetEntry(TimeSeries("flat", np.full(12, 3.0)), np.array([3.0, 4.0, 2.0]), "Other")
    entries = [*synthetic_dataset(9, {"Yearly": 3, "Quarterly": 2, "Monthly": 1}), flat,
               *constant_dataset()]
    names = ("theta", "otm-a", "otm-d", "naive", "naive2", "ses", "holt", "damped")
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.otm("d"),
               *(MethodSpec.benchmark(name) for name in names[3:]))
    result = run_experiment(Dataset(tuple(entries)), ExperimentConfig(methods=methods))
    assert all(s.error is None and s.smape is not None for s in result.scores)
    undefined = {}
    for s in result.scores:
        undefined.setdefault(s.series_id, set()).add(s.mase is None)
    assert {sid for sid, kinds in undefined.items() if kinds == {True}} == {
        "flat", "c0", "c1", "c2", "c3",
    }
    assert all(len(kinds) == 1 for kinds in undefined.values())
    assert list(result.rank_mase) == list(names)
    # the ranks are those of the series whose MASE is defined, averaged per method
    defined = [sid for sid, kinds in undefined.items() if kinds == {False}]
    values = {(s.series_id, s.method): s.mase for s in result.scores}
    matrix = np.array([[values[sid, m] for sid in defined] for m in names])
    assert result.rank_mase == dict(zip(names, map(float, rankdata(matrix, axis=0).mean(axis=1))))


def test_config_validation():
    with pytest.raises(ValueError, match="at least one method"):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError, match="unique"):
        ExperimentConfig(methods=(MethodSpec.classic_theta(), MethodSpec.classic_theta()))
    with pytest.raises(ValueError, match="worker"):
        ExperimentConfig(methods=(MethodSpec.classic_theta(),), workers=0)
