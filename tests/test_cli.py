import numpy as np
import pytest

from optitheta.cli import main, parse_method_token
from optitheta.groe import DEFAULT_THETA_GRID


def test_parse_method_tokens():
    classic = parse_method_token("theta", "se", "ses", DEFAULT_THETA_GRID)
    assert classic.family is None and classic.grid == (2.0,)
    otm = parse_method_token("otm-d", "sape", "damped", DEFAULT_THETA_GRID)
    assert otm.family is None and otm.approach == "d"
    assert otm.cost == "sape" and otm.extrapolator.family == "damped"
    bench = parse_method_token("holt-winters", "se", "ses", DEFAULT_THETA_GRID)
    assert bench.family == "holt_winters"
    with pytest.raises(ValueError, match="unknown method"):
        parse_method_token("prophet", "se", "ses", DEFAULT_THETA_GRID)
    with pytest.raises(ValueError, match="unknown OTM approach"):
        parse_method_token("otm-z", "se", "ses", DEFAULT_THETA_GRID)


def test_synth_then_evaluate_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    rc = main(["synth", "--out", str(corpus), "--seed", "9",
               "--yearly", "4", "--quarterly", "3", "--monthly", "0", "--other", "2"])
    assert rc == 0
    out_dir = tmp_path / "results"
    rc = main(["evaluate", "--data", str(corpus), "--methods", "theta,otm-a,naive",
               "--workers", "2", "--out-dir", str(out_dir)])
    assert rc == 0
    for name in ("scores.csv", "aggregate.csv", "forecasts.csv", "ranks.csv"):
        assert (out_dir / name).exists()
    scores = (out_dir / "scores.csv").read_text().splitlines()
    assert scores[0] == "id,method,smape,mase,theta_hat"
    assert len(scores) == 1 + 9 * 3  # 9 series x 3 methods
    printed = capsys.readouterr().out
    assert "All" in printed and "theta" in printed


def test_evaluate_reports_failures_and_skips_ranks(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "id,group,period,h,n,y...,a...\n"
        "ok,Other,1,2,12,1,2,3,4,5,6,7,8,9,10,11,12,13,14\n"
        "tiny,Other,1,2,2,5,6,7,8\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "res"
    rc = main(["evaluate", "--data", str(corpus), "--methods", "theta,naive",
               "--out-dir", str(out_dir)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "theta failed on tiny" in err
    assert "rank table skipped" in err
    assert not (out_dir / "ranks.csv").exists()


def test_evaluate_rejects_bad_method(tmp_path):
    corpus = tmp_path / "corpus.csv"
    main(["synth", "--out", str(corpus), "--seed", "1",
          "--yearly", "1", "--quarterly", "0", "--monthly", "0", "--other", "0"])
    rc = main(["evaluate", "--data", str(corpus), "--methods", "prophet",
               "--out-dir", str(tmp_path / "r")])
    assert rc == 2


@pytest.mark.parametrize("grid", ["0.5,2", "3,2"])
def test_evaluate_rejects_bad_grid(tmp_path, grid):
    corpus = tmp_path / "corpus.csv"
    main(["synth", "--out", str(corpus), "--seed", "1",
          "--yearly", "1", "--quarterly", "0", "--monthly", "0", "--other", "0"])
    rc = main(["evaluate", "--data", str(corpus), "--methods", "theta,otm-a", "--grid", grid,
               "--out-dir", str(tmp_path / "r")])
    assert rc == 2
    assert not (tmp_path / "r").exists()


def test_evaluate_missing_file_is_config_error(tmp_path):
    rc = main(["evaluate", "--data", str(tmp_path / "nope.csv"), "--methods", "theta",
               "--out-dir", str(tmp_path / "r")])
    assert rc == 2


def test_forecast_subcommand(tmp_path):
    series_file = tmp_path / "series.csv"
    series_file.write_text(
        "id,period,values\nS1,1,10,11,12,13,14,15,16,17\nS2,1,5,5,5,5,5,5\n",
        encoding="utf-8",
    )
    out_file = tmp_path / "fc.csv"
    rc = main(["forecast", "--input", str(series_file), "--h", "4",
               "--method", "otm-a", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "id,method,theta_hat,seasonal,f_1..f_h"
    assert len(lines) == 3
    s2 = lines[2].split(",")
    assert s2[0] == "S2"
    assert np.allclose([float(v) for v in s2[4:]], 5.0)


def test_forecast_default_horizon(tmp_path, capsys):
    series_file = tmp_path / "series.csv"
    rows = ["id,period,values", "Q1,4," + ",".join(str(10 + i) for i in range(24))]
    series_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["forecast", "--input", str(series_file), "--method", "theta"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out[1].split(",")) == 4 + 8  # quarterly default h = 8


@pytest.mark.parametrize("h", ["0", "-2"])
def test_forecast_rejects_non_positive_horizon(tmp_path, capsys, h):
    series_file = tmp_path / "series.csv"
    series_file.write_text("id,period,values\nS1,1,1,2,3,4,5,6,7,8\n", encoding="utf-8")
    rc = main(["forecast", "--input", str(series_file), "--h", h, "--method", "theta"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--h must be >= 1" in captured.err
    assert captured.out == ""


def test_evaluate_rejects_header_only_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("id,group,period,h,n,y...,a...\n", encoding="utf-8")
    rc = main(["evaluate", "--data", str(corpus), "--methods", "theta",
               "--out-dir", str(tmp_path / "r")])
    assert rc == 2
    assert "no series rows" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_grid_override(tmp_path):
    series_file = tmp_path / "series.csv"
    series_file.write_text("id,period,values\nS1,1," + ",".join(str(v) for v in range(1, 30)) + "\n",
                           encoding="utf-8")
    out_file = tmp_path / "fc.csv"
    rc = main(["forecast", "--input", str(series_file), "--h", "3", "--method", "otm-a",
               "--grid", "1,3", "--out", str(out_file)])
    assert rc == 0
    theta = float(out_file.read_text().splitlines()[1].split(",")[2])
    assert theta in (1.0, 3.0)


@pytest.mark.parametrize(
    "bad_row, message",
    [("S2,1,5,abc,7", "line 4: non-numeric field"),
     ("S2,1", "line 4: expected id,period"),
     ("S2,1,5,nan,7", "line 4: series 'S2': values must be finite")],
)
def test_forecast_rejects_bad_row_with_line_number(tmp_path, capsys, bad_row, message):
    series_file = tmp_path / "series.csv"
    series_file.write_text(f"id,period,values\nS1,1,1,2,3,4,5\n\n{bad_row}\n", encoding="utf-8")
    rc = main(["forecast", "--input", str(series_file), "--method", "naive"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_forecast_rejects_repeated_series_id(tmp_path, capsys):
    series_file = tmp_path / "series.csv"
    series_file.write_text("id,period,values\nS1,1,1,2,3,4,5\nS1,1,6,7,8,9,10\n",
                           encoding="utf-8")
    out_file = tmp_path / "fc.csv"
    rc = main(["forecast", "--input", str(series_file), "--method", "naive",
               "--out", str(out_file)])
    assert rc == 2
    assert "repeated series id 'S1'" in capsys.readouterr().err
    assert not out_file.exists()
