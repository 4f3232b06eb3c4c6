import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from optitheta import TimeSeries, fit_linear_trend, trend_value
from optitheta.series import prefix_trends
from reference import prefix_trends_by_dot


def test_exact_line():
    fit = fit_linear_trend(TimeSeries("s", [1.0, 2.0, 3.0]))
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_constant_series():
    fit = fit_linear_trend(TimeSeries("s", [5.0, 5.0, 5.0, 5.0]))
    assert fit.intercept == pytest.approx(5.0, abs=1e-12)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_hand_evaluated_normal_equations():
    # t mean 2.5, y mean 2.75; covariance 5.5 over variance 5 -> slope 1.1
    fit = fit_linear_trend(TimeSeries("s", [1.0, 3.0, 2.0, 5.0]))
    assert fit.slope == pytest.approx(1.1, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_trend_value_examples():
    from optitheta import TrendFit

    assert trend_value(TrendFit(0.0, 1.0), 7) == pytest.approx(7.0)
    assert trend_value(TrendFit(5.0, 0.0), 123) == pytest.approx(5.0)
    fit = fit_linear_trend(TimeSeries("s", [1.0, 3.0, 2.0, 5.0]))
    assert trend_value(fit, 5) == pytest.approx(5.5, abs=1e-12)


def test_trend_value_vectorized():
    from optitheta import TrendFit

    out = trend_value(TrendFit(1.0, 2.0), np.array([1, 2, 3]))
    assert np.allclose(out, [3.0, 5.0, 7.0])


def test_too_short_series_rejected():
    with pytest.raises(ValueError, match="n >= 2"):
        fit_linear_trend(TimeSeries("s", [1.0]))


def test_residuals_sum_to_zero(make_rw):
    for seed in range(25):
        series = make_rw(seed, 10 + seed * 3)
        fit = fit_linear_trend(series)
        t = np.arange(1, series.n + 1)
        residuals = series.values - fit.intercept - fit.slope * t
        assert abs(residuals.sum()) <= 1e-8 * np.abs(series.values).sum()


def test_invariant_to_id_and_period(make_rw):
    series = make_rw(3, 40)
    relabeled = TimeSeries("other-name", series.values, period=12)
    assert fit_linear_trend(series) == fit_linear_trend(relabeled)


def test_affine_equivariance(make_rw):
    rng = np.random.default_rng(99)
    for seed in range(20):
        series = make_rw(seed, 30)
        a = rng.uniform(-5.0, 5.0)
        b = rng.uniform(-100.0, 100.0)
        base = fit_linear_trend(series)
        scaled = fit_linear_trend(series.with_values(a * series.values + b))
        assert scaled.intercept == pytest.approx(a * base.intercept + b, rel=1e-9, abs=1e-9)
        assert scaled.slope == pytest.approx(a * base.slope, rel=1e-9, abs=1e-9)


def test_values_are_read_only():
    series = TimeSeries("s", [1.0, 2.0])
    with pytest.raises(ValueError):
        series.values[0] = 9.0


def test_missing_values_rejected():
    with pytest.raises(ValueError, match="finite"):
        TimeSeries("s", [1.0, np.nan, 3.0])


def test_non_integral_period_rejected():
    with pytest.raises(ValueError, match="period must be an integer >= 1, got 2.7"):
        TimeSeries("s", [1.0, 2.0, 3.0], period=2.7)
    with pytest.raises(ValueError, match="period must be an integer"):
        TimeSeries("s", [1.0, 2.0, 3.0], period=float("nan"))
    assert TimeSeries("s", [1.0, 2.0, 3.0], period=2.0).period == 2


def mean_based_trend(y):
    """Reference for the OLS line: the textbook form with ``np.mean`` for both means."""
    t = np.arange(1, y.size + 1, dtype=np.float64)
    t_dev = t - t.mean()
    slope = np.dot(t_dev, y - y.mean()) / np.dot(t_dev, t_dev)
    return y.mean() - slope * t.mean(), slope


@given(
    values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60)
    | st.tuples(st.floats(-1e3, 1e3), st.integers(2, 60)).map(lambda vn: [vn[0]] * vn[1]),
    exponent=st.integers(-500, 500),
)
@example(values=[7.0] * 37, exponent=500)
@example(values=[-3.0, 1.0, 4.0], exponent=-500)
def test_prefix_trends_equal_fit_linear_trend_bit_for_bit(values, exponent):
    # every prefix line of one call is the single-series fit of that prefix,
    # and the textbook np.mean form, at scales from 2**-500 to 2**500
    series = TimeSeries("s", np.array(values) * 2.0**exponent)
    lengths = range(2, series.n + 1)
    intercepts, slopes = prefix_trends(series.values, lengths)
    for length, line in zip(lengths, np.stack([intercepts, slopes], axis=1)):
        fit = fit_linear_trend(series.with_values(series.values[:length]))
        assert line.tobytes() == np.array([fit.intercept, fit.slope]).tobytes(), length
        assert line.tobytes() == np.array(mean_based_trend(series.values[:length])).tobytes()


def test_ols_denominator_is_the_exact_dot():
    # prefix_trends divides by (n*n - 1) * n / 12, not np.dot(t_dev, t_dev): every term
    # and partial sum of that dot is a multiple of 1/4 below 2**53, so any kernel gives it
    for n in range(2, 5001):
        t_dev = np.arange(1.0, n + 1) - (n + 1) / 2
        assert (n * n - 1) * n / 12 == np.dot(t_dev, t_dev), n


@pytest.mark.parametrize("seed", range(6))
def test_prefix_trends_equal_the_dot_reference_bit_for_bit(seed, make_rw):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 600))
    y = make_rw(seed, n, drift=rng.normal(0.0, 1.0)).values * 10.0 ** rng.integers(-8, 9)
    # every length, shuffled and once more at n, as a GROE table passes its origins then n
    lengths = [*rng.permutation(np.arange(2, n + 1)).tolist(), n]
    got, want = prefix_trends(y, lengths), prefix_trends_by_dot(y, lengths)
    assert np.stack(got).tobytes() == np.stack(want).tobytes()
