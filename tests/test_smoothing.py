import numpy as np
import pytest

from optitheta import TimeSeries, smoothing
from optitheta.seasonal import seasonal_indices
from optitheta.smoothing import FAMILIES, FittedForecaster, ForecasterSpec, fit, forecast


def run(family, values, h=3, period=1, **pins):
    fitted = fit(ForecasterSpec(family, **pins), TimeSeries("s", values, period))
    return fitted, forecast(fitted, h)


# ---------------------------------------------------------------------------
# SES
# ---------------------------------------------------------------------------


def test_ses_constant_series_flat():
    fitted, fx = run("ses", [5.0, 5.0, 5.0, 5.0])
    assert np.allclose(fx, 5.0)
    assert fitted.sse == 0.0


def test_ses_alpha_one_is_random_walk():
    _, fx = run("ses", [2.0, 9.0, 4.0], alpha=1.0)
    assert np.allclose(fx, 4.0)


def test_ses_hand_unrolled_recursion():
    # alpha=0.5, l0=y1 on [2,4,3]: levels 2, 3, 3
    fitted, fx = run("ses", [2.0, 4.0, 3.0], alpha=0.5)
    assert fitted.level == pytest.approx(3.0, abs=0)
    assert np.allclose(fx, 3.0)


def test_ses_forecasts_flat_across_steps(make_rw):
    _, fx = run("ses", make_rw(0, 30).values, h=8)
    assert np.all(fx == fx[0])


def test_ses_picks_alpha_one_on_ramp():
    fitted, fx = run("ses", np.arange(1.0, 11.0))
    assert fitted.alpha == 1.0
    assert fitted.sse == pytest.approx(9.0, abs=1e-12)
    assert np.allclose(fx, 10.0)


# ---------------------------------------------------------------------------
# Holt and damped
# ---------------------------------------------------------------------------


def test_holt_exact_line_continues_it():
    # every grid point reproduces a perfect line; tie-break picks (0, 0)
    fitted, fx = run("holt", np.arange(1.0, 13.0), h=4)
    assert fitted.sse == 0.0
    assert (fitted.alpha, fitted.beta) == (0.0, 0.0)
    assert np.array_equal(fx, np.array([13.0, 14.0, 15.0, 16.0]))


def test_damped_with_phi_one_reproduces_holt(make_rw):
    series = make_rw(7, 40, drift=0.4)
    holt_fit = fit(ForecasterSpec("holt"), series)
    damped_fit = fit(ForecasterSpec("damped", phi=1.0), series)
    assert np.array_equal(forecast(holt_fit, 6), forecast(damped_fit, 6))


def test_damped_forecast_formula():
    fitted, fx = run("damped", np.arange(1.0, 13.0), h=3, alpha=1.0, beta=0.0, phi=0.9)
    # level tracks y exactly at alpha=1; the trend decays through the eleven
    # updates after initialization: b_n = phi^11 * (y_2 - y_1)
    b = 0.9 ** 11
    expected = 12.0 + np.cumsum(0.9 ** np.arange(1, 4)) * b
    assert np.allclose(fx, expected, atol=1e-12)


def test_trended_families_need_three_points():
    with pytest.raises(ValueError, match="n >= 3"):
        run("holt", [1.0, 2.0])


# ---------------------------------------------------------------------------
# Naive and Naive2
# ---------------------------------------------------------------------------


def test_naive_repeats_last_value():
    _, fx = run("naive", [3.0, 5.0, 9.0], h=3)
    assert np.allclose(fx, 9.0)


def test_naive2_on_nonseasonal_equals_naive(make_rw):
    series = make_rw(1, 25)
    naive_fit = fit(ForecasterSpec("naive"), series)
    naive2_fit = fit(ForecasterSpec("naive2"), series)
    assert naive2_fit.family_used == "naive"
    assert not naive2_fit.seasonal
    assert np.array_equal(forecast(naive_fit, 5), forecast(naive2_fit, 5))


def test_naive2_continues_exact_pattern():
    values = np.tile([0.8, 1.2], 8)
    fitted, fx = run("naive2", values, h=4, period=2)
    assert fitted.seasonal
    # deseasonalized last value is 1.0; the pattern continues from position n
    assert np.allclose(fx, [0.8, 1.2, 0.8, 1.2], atol=1e-12)


# ---------------------------------------------------------------------------
# Seasonal variants and dispatch
# ---------------------------------------------------------------------------


def test_holt_winters_differs_from_holt_on_seasonal_data(make_seasonal):
    series = make_seasonal(5, 48, [0.7, 1.3, 0.9, 1.1])
    hw = fit(ForecasterSpec("holt_winters"), series)
    holt = fit(ForecasterSpec("holt"), series)
    assert hw.family_used == "holt_winters" and hw.seasonal
    assert not np.allclose(forecast(hw, 4), forecast(holt, 4))


def test_holt_winters_falls_back_to_holt_on_period_one(make_rw):
    series = make_rw(2, 30)
    hw = fit(ForecasterSpec("holt_winters"), series)
    holt = fit(ForecasterSpec("holt"), series)
    assert hw.family_used == "holt"
    assert np.array_equal(forecast(hw, 5), forecast(holt, 5))


def test_seasonal_damped_falls_back_to_damped(make_rw):
    series = make_rw(3, 30)
    sd = fit(ForecasterSpec("seasonal_damped"), series)
    damped = fit(ForecasterSpec("damped"), series)
    assert sd.family_used == "damped"
    assert np.array_equal(forecast(sd, 5), forecast(damped, 5))


def test_seasonal_damped_tracks_pattern(make_seasonal):
    series = make_seasonal(6, 48, [0.7, 1.3, 0.9, 1.1])
    sd = fit(ForecasterSpec("seasonal_damped"), series)
    assert sd.family_used == "seasonal_damped" and sd.seasonal
    fx = forecast(sd, 4)
    # forecast alternation follows the seasonal pattern ordering
    assert fx[1] > fx[0] and fx[1] > fx[2]


# ---------------------------------------------------------------------------
# Shared properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["naive", "ses", "holt", "damped"])
def test_shift_equivariance(family, make_rw):
    series = make_rw(11, 35, drift=0.2)
    shifted = series.with_values(series.values + 250.0)
    base = forecast(fit(ForecasterSpec(family), series), 6)
    moved = forecast(fit(ForecasterSpec(family), shifted), 6)
    assert np.allclose(moved, base + 250.0, rtol=1e-9, atol=1e-7)


@pytest.mark.parametrize("family", FAMILIES)
def test_degenerate_constant_series(family):
    values = np.full(24, 7.0)
    fitted, fx = run(family, values, h=4, period=4)
    assert np.allclose(fx, 7.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_is_deterministic(family, make_seasonal):
    series = make_seasonal(9, 48, [0.9, 1.1, 0.8, 1.2], noise=0.1)
    first = fit(ForecasterSpec(family), series)
    second = fit(ForecasterSpec(family), series)
    params = lambda f: (f.alpha, f.beta, f.gamma, f.phi, f.sse)  # noqa: E731
    assert params(first) == params(second)
    assert np.array_equal(forecast(first, 6), forecast(second, 6))


@pytest.mark.parametrize("family", ["ses", "holt", "damped"])
def test_overflow_at_every_grid_point_raises(family):
    # every parameter combination overflows to an infinite SSE; argmin must
    # not silently return the first grid point
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        fit(ForecasterSpec(family), TimeSeries("s", [1e200, -1e200] * 5))


# ---------------------------------------------------------------------------
# Blocked grid search against the whole-grid reference
# ---------------------------------------------------------------------------

MONTHLY_PATTERN = [0.8, 0.9, 1.1, 1.2, 1.0, 0.95, 1.05, 1.15, 0.85, 0.9, 1.1, 0.9]


def whole_grid_fit(spec, family, series):
    """Reference search: one _recurrence run over the whole grid, first argmin
    of the sanitized SSE. Returns the winner's grid index and its fit."""
    season = seasonal_indices(series).indices if family in smoothing._SEASONAL else None
    alpha, beta, gamma, phi = smoothing._grid(spec, family)
    sse = np.zeros(alpha.shape)
    with np.errstate(all="ignore"):
        for e, level, trend, factors in smoothing._recurrence(
            series.values, alpha, beta, phi, gamma, season
        ):
            if e is not None:
                sse += e * e
    sse = smoothing._sanitize(sse)
    best = int(np.argmin(sse))
    param = lambda grid: None if grid is None else float(grid[best])  # noqa: E731
    return best, FittedForecaster(
        spec=spec,
        family_used=family,
        n=series.n,
        sse=float(sse[best]),
        level=float(level[best]),
        trend=0.0 if trend is None else float(trend[best]),
        season=None if factors is None else factors[:, best].copy(),
        alpha=param(alpha),
        beta=param(beta),
        gamma=param(gamma),
        phi=param(phi) if family in smoothing._DAMPED else None,
    )


def assert_same_fit(fitted, reference):
    fields = ("family_used", "n", "sse", "level", "trend", "alpha", "beta", "gamma", "phi")
    assert [getattr(fitted, f) for f in fields] == [getattr(reference, f) for f in fields]
    if reference.season is None:
        assert fitted.season is None
    else:
        assert fitted.season.tobytes() == reference.season.tobytes()
    assert forecast(fitted, 18).tobytes() == forecast(reference, 18).tobytes()


def blocked_and_reference(spec, series):
    fitted = fit(spec, series)
    best, reference = whole_grid_fit(spec, fitted.family_used, series)
    assert_same_fit(fitted, reference)
    return best, fitted


# pins keep each grid under 2,000 points, so a 7-point block stays cheap
@pytest.mark.parametrize(
    "spec",
    [
        ForecasterSpec("ses"),
        ForecasterSpec("holt", beta=0.1),
        ForecasterSpec("damped", alpha=0.3),
        ForecasterSpec("holt_winters", beta=0.1),
        ForecasterSpec("seasonal_damped", alpha=0.2, beta=0.1),
    ],
    ids=lambda spec: spec.family,
)
@pytest.mark.parametrize("kind", ["monthly_seasonal", "random_walk"])
def test_blocked_search_equals_whole_grid(spec, kind, make_rw, make_seasonal, monkeypatch):
    # an odd block puts many block boundaries inside every grid and leaves a
    # ragged last block
    monkeypatch.setattr(smoothing, "_BLOCK", 7)
    if kind == "random_walk":
        series = make_rw(21, 40, drift=0.3)
    else:
        series = make_seasonal(4, 60, MONTHLY_PATTERN, noise=0.03)
    _, fitted = blocked_and_reference(spec, series)
    assert fitted.seasonal == (kind == "monthly_seasonal" and spec.family in smoothing._SEASONAL)


@pytest.mark.parametrize("family", ["ses", "holt", "damped"])
def test_blocked_search_all_tied_picks_first_point(family):
    # with y = 2 every update is exact, so every grid point has SSE 0 and the
    # winner is grid index 0 even though the tie spans every block
    series = TimeSeries("c", np.full(24, 2.0))
    best, fitted = blocked_and_reference(ForecasterSpec(family), series)
    assert best == 0 and fitted.sse == 0.0
    assert (fitted.alpha, fitted.beta, fitted.phi) == (
        0.0,
        None if family == "ses" else 0.0,
        smoothing.PHI_MIN if family == "damped" else None,
    )


def test_blocked_search_grid_smaller_than_one_block(make_rw):
    spec = ForecasterSpec("damped", alpha=0.5, beta=0.1)
    assert smoothing._grid(spec, "damped")[0].size < smoothing._BLOCK
    blocked_and_reference(spec, make_rw(8, 30, drift=0.5))


def test_blocked_search_minimum_beyond_first_block(make_rw):
    # Holt on a driftless random walk wants alpha near 1, i.e. a grid index
    # past the first block of the 10,201-point grid
    best, _ = blocked_and_reference(ForecasterSpec("holt"), make_rw(3, 40))
    assert best >= smoothing._BLOCK


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        ForecasterSpec("arima")


def test_horizon_must_be_positive(make_rw):
    fitted = fit(ForecasterSpec("ses"), make_rw(0, 10))
    with pytest.raises(ValueError, match="horizon"):
        forecast(fitted, 0)
