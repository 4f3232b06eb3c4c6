import numpy as np
import pytest
from hypothesis import given, strategies as st

from optitheta import (
    MethodSpec,
    TimeSeries,
    approach_config,
    estimate_theta,
    fit_linear_trend,
    otm_forecast,
    theta_line,
    trend_value,
)
from optitheta.cli import main
from optitheta.groe import DEFAULT_THETA_GRID, forecast_table
from optitheta.pipeline import run_method
from optitheta.smoothing import ForecasterSpec, fit as fit_forecaster, forecast as run_forecast
from reference import combination_weight, recompose


@pytest.fixture
def hand_series():
    series = TimeSeries("s", [1.0, 3.0, 2.0, 5.0])
    return series, fit_linear_trend(series)


# ---------------------------------------------------------------------------
# theta lines
# ---------------------------------------------------------------------------


def test_theta_one_is_identity(hand_series):
    series, fit = hand_series
    assert np.array_equal(theta_line(series, fit, 1.0).values, series.values)


def test_theta_zero_is_regression_line(hand_series):
    series, fit = hand_series
    t = np.arange(1, 5)
    assert np.allclose(theta_line(series, fit, 0.0).values, trend_value(fit, t), atol=1e-12)


def test_theta_two_hand_values(hand_series):
    series, fit = hand_series
    # 2*y - (0 + 1.1*t) evaluated by hand
    assert np.allclose(theta_line(series, fit, 2.0).values, [0.9, 3.8, 0.7, 5.6], atol=1e-12)


def test_trend_preservation(make_rw):
    for seed in range(10):
        series = make_rw(seed, 25)
        fit = fit_linear_trend(series)
        for theta in (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0):
            line = theta_line(series, fit, theta)
            refit = fit_linear_trend(series.with_values(line.values))
            assert refit.intercept == pytest.approx(fit.intercept, abs=1e-9)
            assert refit.slope == pytest.approx(fit.slope, abs=1e-9)


# ---------------------------------------------------------------------------
# recomposition weights
# ---------------------------------------------------------------------------


def test_weight_examples():
    assert combination_weight(0.0, 2.0) == 0.5
    assert combination_weight(1.0, 1.0) == 1.0
    assert combination_weight(0.0, 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_weight_domain_errors():
    with pytest.raises(ValueError, match="theta1 <= 1 <= theta2"):
        combination_weight(1.5, 2.0)
    with pytest.raises(ValueError, match="theta1 <= 1 <= theta2"):
        combination_weight(0.0, 0.5)


@given(
    theta1=st.floats(min_value=-50.0, max_value=1.0),
    theta2=st.floats(min_value=1.0, max_value=50.0),
)
def test_weight_always_in_unit_interval(theta1, theta2):
    omega = combination_weight(theta1, theta2)
    assert 0.0 <= omega <= 1.0


def test_recompose_equal_weights_identity(hand_series):
    series, fit = hand_series
    out = recompose(theta_line(series, fit, 0.0), theta_line(series, fit, 2.0), 0.5)
    assert np.allclose(out, series.values, atol=1e-12)


def test_recompose_degenerate_pair(hand_series):
    series, fit = hand_series
    line = theta_line(series, fit, 1.0)
    assert np.allclose(recompose(line, line, 1.0), series.values)


def test_recompose_zero_four(make_rw):
    series = make_rw(17, 20)
    fit = fit_linear_trend(series)
    out = recompose(theta_line(series, fit, 0.0), theta_line(series, fit, 4.0), 0.75)
    assert np.max(np.abs(out - series.values)) <= 1e-10 * np.max(np.abs(series.values))


def test_recompose_weight_oracle(make_rw):
    # omega from the weight function is the value that reconstructs the data
    series = make_rw(23, 30)
    fit = fit_linear_trend(series)
    omega = combination_weight(0.0, 3.0)
    out = recompose(theta_line(series, fit, 0.0), theta_line(series, fit, 3.0), omega)
    assert np.allclose(out, series.values, atol=1e-9)


def test_recompose_fails_off_the_weight(hand_series):
    series, fit = hand_series
    omega = combination_weight(0.0, 2.0) + 0.1
    out = recompose(theta_line(series, fit, 0.0), theta_line(series, fit, 2.0), omega)
    assert np.max(np.abs(out - series.values)) > 1e-6


def test_recompose_shape_error(hand_series):
    series, fit = hand_series
    short = TimeSeries("t", [1.0, 2.0])
    with pytest.raises(ValueError, match="length"):
        recompose(theta_line(series, fit, 0.0), theta_line(short, fit, 2.0), 0.5)


# ---------------------------------------------------------------------------
# combined forecasts
# ---------------------------------------------------------------------------


def test_otm_rejects_theta_below_one(hand_series):
    series, _ = hand_series
    with pytest.raises(ValueError, match="theta"):
        otm_forecast(series, 0.5, 2)


def test_otm_rejects_seasonal_extrapolators(hand_series):
    series, _ = hand_series
    with pytest.raises(ValueError, match="extrapolator"):
        otm_forecast(series, 2.0, 2, ForecasterSpec("holt_winters"))


def test_theta_one_reduces_to_ses(make_rw):
    for seed in range(20):
        series = make_rw(seed, 30)
        combined = otm_forecast(series, 1.0, 6)
        ses = run_forecast(fit_forecaster(ForecasterSpec("ses"), series), 6)
        assert np.max(np.abs(combined - ses)) <= 1e-12


def test_theta_two_equals_hand_composed_classic(make_rw):
    spec = ForecasterSpec("ses", alpha=0.4)
    for seed in range(10):
        series = make_rw(seed, 24)
        fit = fit_linear_trend(series)
        line = theta_line(series, fit, 2.0)
        ses_fx = run_forecast(fit_forecaster(spec, series.with_values(line.values)), 5)
        k = np.arange(1, 6)
        expected = 0.5 * trend_value(fit, series.n + k) + 0.5 * ses_fx
        assert np.allclose(otm_forecast(series, 2.0, 5, spec), expected, atol=1e-12)


def test_theta_four_on_exact_line_hand_values():
    series = TimeSeries("s", np.arange(1.0, 11.0))
    # theta line of a perfect line is the line itself; pinned-alpha SES level
    # unrolls to 9.001953125 (dyadic, so float-exact)
    fx = otm_forecast(series, 4.0, 3, ForecasterSpec("ses", alpha=0.5))
    expected = 0.75 * np.array([11.0, 12.0, 13.0]) + 0.25 * 9.001953125
    assert np.array_equal(fx, expected)


def test_theta_four_on_exact_line_fitted_alpha():
    series = TimeSeries("s", np.arange(1.0, 11.0))
    fx = otm_forecast(series, 4.0, 3)
    # fitted alpha is 1 on a ramp, so the line forecast is flat at 10
    expected = 0.75 * np.array([11.0, 12.0, 13.0]) + 0.25 * 10.0
    assert np.allclose(fx, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form oracle: OTM with SES is SES with drift
# ---------------------------------------------------------------------------


def ses_with_drift_forecasts(values, theta, h, alpha):
    """OTM forecasts with SES at a pinned alpha, from the closed form of SES on
    a line (Hyndman & Billah, IJF 2003; Fiorucci et al., IJF 2016).

    SES seeded at the first value of ``a + b*t`` has level
    ``a + b*t - b*(1-alpha)/alpha * (1 - (1-alpha)**(t-1))`` at time t, and SES
    is linear in its input, so the theta line's final level is
    ``theta*l_n(y) + (1-theta)*l_n(a + b*t)``. Plain Python, no package code.
    """
    n = len(values)
    t_mean = (n + 1) / 2
    y_mean = sum(values) / n
    sxy = sum((t - t_mean) * (y - y_mean) for t, y in enumerate(values, start=1))
    sxx = sum((t - t_mean) ** 2 for t in range(1, n + 1))
    b = sxy / sxx
    a = y_mean - b * t_mean
    level = values[0]
    for y in values[1:]:
        level += alpha * (y - level)
    line_level = a + b * n - b * (1 - alpha) / alpha * (1 - (1 - alpha) ** (n - 1))
    theta_level = theta * level + (1 - theta) * line_level
    return [(1 - 1 / theta) * (a + b * (n + k)) + theta_level / theta for k in range(1, h + 1)]


def oracle_cases():
    """(series, alpha): 30 seeded random walks with a seeded pinned alpha."""
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(12, 80))
        values = 100.0 + np.cumsum(rng.normal(rng.uniform(-1.0, 1.0), 2.0, n))
        yield TimeSeries(f"rw{seed}", values), float(rng.uniform(0.05, 1.0))


def test_otm_forecast_matches_the_closed_form():
    for series, alpha in oracle_cases():
        spec = ForecasterSpec("ses", alpha=alpha)
        values = series.values.tolist()
        table = forecast_table(series, DEFAULT_THETA_GRID, [series.n], 6, spec)[series.n]
        for row, theta in zip(table, DEFAULT_THETA_GRID):
            expected = ses_with_drift_forecasts(values, theta, 6, alpha)
            np.testing.assert_allclose(otm_forecast(series, theta, 6, spec), expected,
                                       rtol=1e-12, atol=0.0, err_msg=f"{series.id} {theta}")
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0.0,
                                       err_msg=f"{series.id} {theta}")


@pytest.mark.parametrize("approach", ["a", "d", "h"])
def test_selecting_token_matches_the_closed_form(approach):
    for series, alpha in oracle_cases():
        spec = MethodSpec.otm(approach, extrapolator=ForecasterSpec("ses", alpha=alpha))
        result = run_method(series, 6, spec)
        assert result.note is None and not result.seasonal
        expected = ses_with_drift_forecasts(series.values.tolist(), result.theta, 6, alpha)
        np.testing.assert_allclose(result.forecasts, expected, rtol=1e-12, atol=0.0,
                                   err_msg=series.id)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_holt_extrapolator_is_rejected(seed, make_rw):
    # Holt reproduces a line exactly, so every grid theta would give Holt on
    # the series itself and theta would be chosen by rounding
    series = make_rw(seed, 30, drift=0.3)
    holt = ForecasterSpec("holt")
    with pytest.raises(ValueError, match="extrapolator must be one of"):
        otm_forecast(series, 2.0, 6, holt)
    with pytest.raises(ValueError, match="extrapolator must be one of"):
        estimate_theta(series, config=approach_config("d", 30, 6), extrapolator=holt)
    with pytest.raises(ValueError, match="extrapolator must be one of"):
        MethodSpec.otm("d", extrapolator="holt")


def test_cli_rejects_holt_extrapolator(tmp_path):
    series_file = tmp_path / "series.csv"
    series_file.write_text("id,period,values\nS1,1," + ",".join(map(str, range(1, 30))) + "\n",
                           encoding="utf-8")
    corpus = tmp_path / "corpus.csv"
    main(["synth", "--out", str(corpus), "--seed", "1",
          "--yearly", "1", "--quarterly", "0", "--monthly", "0", "--other", "0"])
    for argv in (["forecast", "--input", str(series_file), "--method", "otm-a"],
                 ["evaluate", "--data", str(corpus), "--methods", "otm-a",
                  "--out-dir", str(tmp_path / "out")]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--extrapolator", "holt"])
        assert exc.value.code == 2
