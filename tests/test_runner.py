import numpy as np
import pytest

from optitheta import (
    Dataset,
    ExperimentConfig,
    MethodSpec,
    TimeSeries,
    run_experiment,
    synthetic_dataset,
)
from optitheta import runner, smoothing
from optitheta.dataset import DatasetEntry


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


def test_pool_is_no_larger_than_the_series_count(monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(runner.multiprocessing, "Pool", InProcessPool)
    ds = synthetic_dataset(5, {"Yearly": 3, "Other": 2})
    methods = (MethodSpec.classic_theta(), MethodSpec.benchmark("naive"))
    serial = run_experiment(ds, ExperimentConfig(methods=methods, workers=1))
    pooled = run_experiment(ds, ExperimentConfig(methods=methods, workers=64))
    assert sizes == [5]
    assert [f.forecasts.tobytes() for f in pooled.forecasts] == [
        f.forecasts.tobytes() for f in serial.forecasts]


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


def test_config_validation():
    with pytest.raises(ValueError, match="at least one method"):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError, match="unique"):
        ExperimentConfig(methods=(MethodSpec.classic_theta(), MethodSpec.classic_theta()))
    with pytest.raises(ValueError, match="worker"):
        ExperimentConfig(methods=(MethodSpec.classic_theta(),), workers=0)
