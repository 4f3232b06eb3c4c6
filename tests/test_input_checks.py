"""Each input check of the library and the CLI refuses its bad input with its
own message, so a wrong call fails where it is made and says why."""

import numpy as np
import pytest

from optitheta import TimeSeries
from optitheta.cli import main
from optitheta.dataset import Dataset, DatasetEntry, _parse_entry
from optitheta.groe import (
    DEFAULT_THETA_GRID, GroeConfig, approach_config, forecast_table, loss_rows,
)
from optitheta.metrics import mase, smape
from optitheta.pipeline import MethodSpec
from optitheta.runner import ExperimentConfig
from optitheta.seasonal import SeasonalIndices, autocorrelations, reseasonalize, seasonal_indices
from optitheta.smoothing import ForecasterSpec
from optitheta.theta import otm_forecast

WALK = TimeSeries("rw", 100.0 + np.cumsum(np.random.default_rng(0).normal(0.0, 2.0, 30)))
SHORT = TimeSeries("s", np.arange(1.0, 5.0))

CHECKS = {
    "groe-p": (lambda: GroeConfig(p=0, m=1, H=1, n1=2), "p must be a positive integer"),
    "groe-m": (lambda: GroeConfig(p=1, m=0, H=1, n1=2), "m must be a positive integer"),
    "groe-H": (lambda: GroeConfig(p=1, m=1, H=0, n1=2), "H must be a positive integer"),
    "groe-n1": (lambda: GroeConfig(p=1, m=1, H=1, n1=1), r"n1 >= 2"),
    "approach-h": (lambda: approach_config("a", 30, 0), "horizon must be >= 1"),
    "table-origin-below-2": (
        lambda: forecast_table(WALK, DEFAULT_THETA_GRID, [1, 20], 6), r"lie in \[2, n\]"),
    "table-origin-above-n": (
        lambda: forecast_table(WALK, DEFAULT_THETA_GRID, [20, 31], 6), r"lie in \[2, n\]"),
    "otm-h": (lambda: otm_forecast(WALK, 2.0, 0), "horizon must be >= 1"),
    # a table is scored only against the grid and the origins it was built for
    "select-one-row-table": (
        lambda: loss_rows(WALK, DEFAULT_THETA_GRID, forecast_table(WALK, [2.0], [20], 6), [20]),
        r"1 rows at origin 20, not one per grid theta \(9\)"),
    "select-row-count": (
        lambda: loss_rows(WALK, DEFAULT_THETA_GRID, forecast_table(WALK, [1.0, 2.0], [20], 6), [20]),
        r"2 rows at origin 20, not one per grid theta \(9\)"),
    "loss-rows-empty-origins": (
        lambda: loss_rows(WALK, DEFAULT_THETA_GRID, forecast_table(WALK, DEFAULT_THETA_GRID, [20], 6), []),
        "origins must be non-empty"),
    "select-missing-origin": (
        lambda: loss_rows(
            WALK, DEFAULT_THETA_GRID, forecast_table(WALK, DEFAULT_THETA_GRID, [20], 6), [20, 23]),
        "no rows for origin 23"),
    "spec-alpha": (lambda: ForecasterSpec("ses", alpha=-0.1), r"alpha must lie in \[0, 1\]"),
    "spec-beta": (lambda: ForecasterSpec("holt", beta=1.5), r"beta must lie in \[0, 1\]"),
    "spec-gamma": (lambda: ForecasterSpec("holt_winters", gamma=2.0), r"gamma must lie in \[0, 1\]"),
    "spec-phi-zero": (lambda: ForecasterSpec("damped", phi=0.0), r"phi must lie in \(0, 1\]"),
    "spec-phi-above-1": (lambda: ForecasterSpec("damped", phi=1.01), r"phi must lie in \(0, 1\]"),
    "indices-empty": (lambda: SeasonalIndices(np.array([])), "must be a non-empty"),
    "acf-nlags": (lambda: autocorrelations([1.0, 2.0, 3.0], 3), "need more than 3 observations"),
    "indices-period-1": (lambda: seasonal_indices(SHORT), "needs period >= 2"),
    "indices-short": (
        lambda: seasonal_indices(TimeSeries("m", np.arange(1.0, 21.0), 12)), "too short"),
    "reseasonalize-start": (
        lambda: reseasonalize([1.0], SeasonalIndices([0.5, 1.5]), 0), "start_t must be"),
    "series-empty": (lambda: TimeSeries("e", []), "must be a non-empty"),
    "smape-empty": (lambda: smape([], []), "at least one forecast"),
    "mase-empty": (lambda: mase([1.0, 2.0], [], []), "at least one forecast"),
    "entry-no-actuals": (lambda: DatasetEntry(SHORT, [], "Yearly"), "finite and non-empty"),
    "entry-nan-actual": (
        lambda: DatasetEntry(SHORT, [1.0, np.nan], "Yearly"), "finite and non-empty"),
    "entry-id-comma": (
        lambda: DatasetEntry(TimeSeries("a,b", [1.0]), [1.0], "Yearly"), "'a,b': an id must not"),
    "entry-id-line-break": (
        lambda: DatasetEntry(TimeSeries("a\nb", [1.0]), [1.0], "Yearly"), "a line break"),
    "entry-id-padded": (
        lambda: DatasetEntry(TimeSeries(" S1", [1.0]), [1.0], "Yearly"), "' S1': an id must not start"),
    "dataset-empty": (lambda: Dataset(entries=()), "a dataset needs at least one entry"),
    # a method name is a field of every output row, as an id is
    "method-name-comma": (lambda: MethodSpec.otm("a", name="otm,a"), "'otm,a': a name must not"),
    "method-name-line-break": (lambda: MethodSpec.otm("a", name="nv\nx"), "a line break"),
    "method-name-padded": (
        lambda: MethodSpec.benchmark("naive", name="naive "), "'naive ': a name must not start"),
    "entry-group": (
        lambda: DatasetEntry(SHORT, [1.0], "Weekly"), "unknown group 'Weekly'; expected one of"),
    "row-group": (lambda: _parse_entry("X1,Weekly,1,1,2,10,11,12".split(",")), "expected one of"),
    # the field count is checked before the group, which DatasetEntry checks
    "row-group-and-count": (lambda: _parse_entry("X1,Weekly,1,1,5,10,11".split(",")), "need 11"),
    "row-period-text": (lambda: _parse_entry("Y1,Yearly,x,1,2,10,11,12".split(",")), "integers"),
    "row-h-text": (lambda: _parse_entry("Y1,Yearly,1,1.5,2,10,11,12".split(",")), "integers"),
    "row-n-text": (lambda: _parse_entry("Y1,Yearly,1,1,two,10,11,12".split(",")), "integers"),
    "row-period-zero": (lambda: _parse_entry("Y1,Yearly,0,1,2,10,11,12".split(",")), "positive"),
    "row-h-zero": (lambda: _parse_entry("Y1,Yearly,1,0,2,10,11".split(",")), "positive"),
    "row-n-negative": (lambda: _parse_entry("Y1,Yearly,1,1,-2,10".split(",")), "positive"),
    # a fractional count would fail later, inside the runner's task slicing
    "workers-fraction": (
        lambda: ExperimentConfig((MethodSpec.classic_theta(),), workers=2.5),
        "worker count must be a positive integer, got 2.5"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS)
def test_library_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "rows, args, code, err",
    [
        (["S1,1,1,2,3,4,5,6,7,8"], ["--grid", "1,x"], 2, "grid must be comma-separated numbers"),
        # one series too short for damped fails alone; the other is forecast
        (["S1,1,1,2,3,4,5,6,7,8", "S2,1,4,5"], ["--method", "damped"], 0, "series 'S2' failed"),
        (["S2,1,4,5"], ["--method", "damped"], 1, "series 'S2' failed"),
    ],
    ids=["bad-grid", "one-series-fails", "every-series-fails"],
)
def test_cli_input_paths(tmp_path, capsys, rows, args, code, err):
    series_file = tmp_path / "series.csv"
    series_file.write_text("\n".join(["id,period,values", *rows]) + "\n", encoding="utf-8")
    assert main(["forecast", "--input", str(series_file), "--h", "3", *args]) == code
    captured = capsys.readouterr()
    assert err in captured.err
    forecast_ids = [line.split(",")[0] for line in captured.out.splitlines()[1:]]
    assert forecast_ids == (["S1"] if code == 0 else [])
