import numpy as np
import pytest

from optitheta import (
    SeasonalIndices,
    TimeSeries,
    deseasonalize,
    is_seasonal,
    reseasonalize,
    seasonal_indices,
    seasonality_applies,
)
from optitheta.seasonal import ACF_CRITICAL, _centered_moving_average, autocorrelations


def brute_force_acf(values, nlags):
    """Reference autocorrelation: plain loops, deviations about the mean."""
    y = np.asarray(values, dtype=float)
    mean = y.mean()
    denom = sum((v - mean) ** 2 for v in y)
    out = []
    for k in range(1, nlags + 1):
        num = sum((y[t] - mean) * (y[t + k] - mean) for t in range(len(y) - k))
        out.append(num / denom)
    return np.array(out)


# ---------------------------------------------------------------------------
# seasonality test
# ---------------------------------------------------------------------------


def test_period_one_never_seasonal():
    assert not is_seasonal(TimeSeries("s", np.sin(np.arange(50.0)) + 2.0, period=1))


def test_insufficient_data_rule():
    assert not is_seasonal(TimeSeries("s", np.arange(10.0) + 1.0, period=12))


def test_sine_wave_is_seasonal():
    t = np.arange(1, 49)
    series = TimeSeries("s", 10.0 + np.sin(2.0 * np.pi * t / 4.0), period=4)
    # hand-run oracle: r4 = 22/24 against the 90% band from r1..r3
    r = brute_force_acf(series.values, 4)
    band = ACF_CRITICAL * np.sqrt((1.0 + 2.0 * np.sum(r[:3] ** 2)) / 48)
    assert r[3] == pytest.approx(22.0 / 24.0, abs=1e-12)
    assert abs(r[3]) > band
    assert is_seasonal(series)


def test_autocorrelations_match_brute_force(make_rw):
    for seed in range(10):
        series = make_rw(seed, 40)
        assert np.allclose(
            autocorrelations(series.values, 6), brute_force_acf(series.values, 6), atol=1e-12
        )


def test_constant_series_not_seasonal():
    assert not is_seasonal(TimeSeries("s", np.full(48, 3.0), period=4))


def test_seasonality_invariant_to_positive_rescaling(make_seasonal, make_rw):
    seasonal = make_seasonal(1, 48, [0.7, 1.1, 0.9, 1.3], noise=0.05)
    flat = make_rw(2, 48, period=4)
    for series in (seasonal, flat):
        expected = is_seasonal(series)
        for c in (1e-3, 7.0, 1e4):
            assert is_seasonal(series.with_values(c * series.values)) is expected


def test_seasonality_decision_holds_at_every_power_of_two_scale():
    # squaring raw deviations would overflow above about 1e154 and underflow
    # below about 1e-154; a power-of-two rescale is exact, so nothing may move
    t = np.arange(60.0)
    series = TimeSeries("m", 100.0 + 30.0 * np.sin(2.0 * np.pi * t / 12.0), period=12)
    acf, idx = autocorrelations(series.values, 12), seasonal_indices(series).indices
    assert is_seasonal(series)
    for k in range(-1000, 1001):
        scaled = series.with_values(np.ldexp(series.values, k))
        assert is_seasonal(scaled), k
        assert np.array_equal(autocorrelations(scaled.values, 12), acf), k
        assert np.array_equal(seasonal_indices(scaled).indices, idx), k


def test_seasonality_applies_needs_positive_values(make_seasonal):
    series = make_seasonal(3, 48, [0.8, 1.2, 0.9, 1.1])
    assert seasonality_applies(series)
    dipped = series.with_values(series.values - series.values.max())
    assert not seasonality_applies(dipped)


# ---------------------------------------------------------------------------
# classical decomposition
# ---------------------------------------------------------------------------


def test_indices_recover_exact_pattern():
    pattern = np.array([0.8, 1.2, 0.9, 1.1])
    series = TimeSeries("s", 100.0 * np.tile(pattern, 10), period=4)
    idx = seasonal_indices(series)
    assert np.allclose(idx.indices, pattern, atol=1e-12)


def test_indices_constant_pattern_all_ones():
    series = TimeSeries("s", 42.0 * np.ones(24), period=4)
    assert np.allclose(seasonal_indices(series).indices, 1.0, atol=1e-12)


def test_indices_scale_invariant():
    pattern = np.array([0.8, 1.2, 0.9, 1.1])
    series = TimeSeries("s", 100.0 * np.tile(pattern, 10), period=4)
    scaled = series.with_values(7.0 * series.values)
    assert np.allclose(seasonal_indices(series).indices, seasonal_indices(scaled).indices)


def test_indices_mean_is_one(make_seasonal):
    for seed in range(10):
        series = make_seasonal(seed, 60, [0.7, 1.0, 1.3, 1.0], noise=0.1)
        idx = seasonal_indices(series)
        assert abs(idx.indices.mean() - 1.0) <= 1e-9


def test_indices_need_positive_values():
    values = np.tile([1.0, 2.0, -1.0, 2.0], 6)
    with pytest.raises(ValueError, match="positive"):
        seasonal_indices(TimeSeries("s", values, period=4))


def test_odd_period_decomposition():
    pattern = np.array([0.9, 1.2, 0.9])
    series = TimeSeries("s", 50.0 * np.tile(pattern, 8), period=3)
    idx = seasonal_indices(series)
    assert np.allclose(idx.indices, pattern / pattern.mean(), atol=1e-12)


def mask_and_mean_indices(series):
    """Reference per-season factors: each season's ratios picked by a boolean mask, then ``mean()``."""
    m, y = series.period, series.values
    trend = _centered_moving_average(y, m)
    offset = m // 2
    ratios = y[offset : offset + trend.size] / trend
    seasons = np.arange(offset, offset + trend.size) % m
    means = np.array([ratios[seasons == s].mean() for s in range(m)])
    return means / means.mean()


def test_indices_equal_the_mask_and_mean_reference():
    # odd and even periods, whole and partial cycles, 3 to 11 of them
    rng = np.random.default_rng(23)
    for m in range(2, 13):
        for cycles in range(3, 12):
            for extra in (0, m - 1):
                n = cycles * m + extra
                values = np.exp(rng.normal(3.0, 1.0, n)) * (1.0 + 0.3 * np.sin(np.arange(n) * 2 * np.pi / m))
                series = TimeSeries("s", values, period=m)
                expected = mask_and_mean_indices(series)
                assert seasonal_indices(series).indices.tobytes() == expected.tobytes(), (m, n)


def test_seasonal_indices_validation():
    with pytest.raises(ValueError, match="average to 1"):
        SeasonalIndices(np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="positive"):
        SeasonalIndices(np.array([2.0, 0.0]))


# ---------------------------------------------------------------------------
# deseasonalize / reseasonalize
# ---------------------------------------------------------------------------


def test_deseasonalize_identity_indices():
    series = TimeSeries("s", [4.0, 5.0, 6.0, 7.0], period=2)
    out = deseasonalize(series, SeasonalIndices(np.array([1.0, 1.0])))
    assert np.allclose(out.values, series.values)


def test_deseasonalize_exact_pattern_removal():
    series = TimeSeries("s", [0.8, 1.2, 0.8, 1.2], period=2)
    out = deseasonalize(series, SeasonalIndices(np.array([0.8, 1.2])))
    assert np.allclose(out.values, 1.0)


def test_deseasonalize_length_mismatch():
    series = TimeSeries("s", [1.0, 2.0, 3.0], period=3)
    with pytest.raises(ValueError, match="does not match"):
        deseasonalize(series, SeasonalIndices(np.array([1.0, 1.0])))


def test_reseasonalize_flat_forecasts():
    idx = SeasonalIndices(np.array([0.5, 1.5]))
    out = reseasonalize([2.0, 2.0], idx, start_t=9)  # n = 8, even
    assert np.allclose(out, [1.0, 3.0])


def test_round_trip(make_seasonal):
    for seed in range(10):
        series = make_seasonal(seed, 48, [0.8, 1.2, 0.9, 1.1], noise=0.05)
        idx = seasonal_indices(series)
        adjusted = deseasonalize(series, idx)
        restored = reseasonalize(adjusted.values, idx, start_t=1)
        assert np.max(np.abs(restored - series.values)) <= 1e-12 * np.max(np.abs(series.values))


def test_reseasonalize_continues_phase():
    idx = SeasonalIndices(np.array([0.5, 1.5]))
    series = TimeSeries("s", [1.0, 3.0, 1.0], period=2)  # n odd: next season position is 1
    out = reseasonalize([2.0, 2.0, 2.0], idx, start_t=series.n + 1)
    assert np.allclose(out, [3.0, 1.0, 3.0])
