import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optitheta import (
    APPROACHES, TimeSeries, approach_config, estimate_theta, smoothing, synthetic_dataset,
)
from optitheta.groe import COST_FUNCTIONS, DEFAULT_THETA_GRID, forecast_table, scored_origins
from optitheta.seasonal import seasonal_indices, seasonality_applies
from optitheta.smoothing import FAMILIES, FittedForecaster, ForecasterSpec, damping, fit, forecast


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
    assert fitted.params == {"alpha": 1.0}
    assert fitted.sse == pytest.approx(9.0, abs=1e-12)
    assert np.allclose(fx, 10.0)


# ---------------------------------------------------------------------------
# Holt and damped
# ---------------------------------------------------------------------------


def test_holt_exact_line_continues_it():
    # every grid point reproduces a perfect line; tie-break picks (0, 0)
    fitted, fx = run("holt", np.arange(1.0, 13.0), h=4)
    assert fitted.sse == 0.0
    assert fitted.params == {"alpha": 0.0, "beta": 0.0}
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


def test_damping_without_phi_is_the_exact_step_count():
    # SES and Holt forecast with phi = 1, whose multiples must stay exactly k
    for h in (1, 6, 18, 1000):
        assert np.array_equal(damping(1.0, h), np.arange(1.0, h + 1))
    assert damping(np.array([0.5, 1.0]), 2).tolist() == [[0.5, 0.75], [1.0, 2.0]]


def damping_form_forecast(fitted, h):
    """Reference forecasts: the trend multiples of every fit from ``damping``, phi 1 without one."""
    out = fitted.level + damping(fitted.params.get("phi", 1.0), h) * fitted.trend
    if fitted.season is not None:
        out = out * fitted.season[(fitted.n + np.arange(h)) % fitted.season.size]
    return out


def test_forecasts_without_phi_equal_the_damping_form(make_rw, make_seasonal):
    series = [make_rw(1, 8), make_rw(2, 30, drift=1.5), make_rw(3, 60, drift=-2.0),
              make_seasonal(4, 48, [0.8, 1.1, 1.3, 0.8], noise=0.03)]
    for family in ("ses", "holt", "naive", "naive2", "damped"):
        for s in series:
            fitted = fit(ForecasterSpec(family), s)
            for h in (1, 8, 18, 1000):
                expected = damping_form_forecast(fitted, h)
                assert forecast(fitted, h).tobytes() == expected.tobytes(), (family, s.n, h)


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
    assert (first.params, first.sse) == (second.params, second.sse)
    assert np.array_equal(forecast(first, 6), forecast(second, 6))


@pytest.mark.parametrize("family", ["ses", "holt", "damped"])
def test_overflow_at_every_grid_point_raises(family):
    # every parameter combination overflows to an infinite SSE; argmin must
    # not silently return the first grid point
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        fit(ForecasterSpec(family), TimeSeries("s", [1e200, -1e200] * 5))


@pytest.mark.parametrize("family, runs", [("holt", "holt"), ("holt_winters", "holt"),
                                          ("seasonal_damped", "damped")])
def test_too_short_error_names_the_family_that_runs(family, runs):
    # a seasonal family on a series without a season runs its sibling, as the overflow error says
    with pytest.raises(ValueError, match=f"family '{runs}' needs n >= 3, got n=2"):
        fit(ForecasterSpec(family), TimeSeries("s", [1.0, 2.0]))


def test_naive_on_overflow_scale_series_repeats_last_value():
    # its in-sample SSE overflows to inf, which is only reported
    steps = np.random.default_rng(0).standard_normal(30)
    series = TimeSeries("big", 1e200 * (1.0 + 0.01 * np.cumsum(steps)))
    fitted = fit(ForecasterSpec("naive"), series)
    assert fitted.sse == np.inf
    assert np.array_equal(forecast(fitted, 6), np.full(6, series.values[-1]))


# ---------------------------------------------------------------------------
# Blocked grid search against the whole-grid reference
# ---------------------------------------------------------------------------

MONTHLY_PATTERN = [0.8, 0.9, 1.1, 1.2, 1.0, 0.95, 1.05, 1.15, 0.85, 0.9, 1.1, 0.9]


def whole_grid_fit(spec, family, series, recurrence=smoothing._recurrence):
    """Reference search: one ``recurrence`` run over the whole grid, first
    argmin of the sanitized SSE. Returns the winner's grid index and its fit."""
    season = seasonal_indices(series).indices if family in smoothing.SEASONAL else None
    grid = smoothing._grid(replace(spec, family=family))
    sse = np.zeros(grid["alpha"].shape)
    with np.errstate(all="ignore"):
        for e, level, trend, factors in recurrence(series.values, season=season, **grid):
            if e is not None:
                sse += e * e
    sse = smoothing._sanitize(sse)
    best = int(np.argmin(sse))
    return best, FittedForecaster(
        family_used=family,
        n=series.n,
        sse=float(sse[best]),
        level=float(level[best]),
        trend=0.0 if trend is None else float(trend[best]),
        season=None if factors is None else factors[:, best].copy(),
        params={k: float(v[best]) for k, v in grid.items()},
    )


def assert_same_fit(fitted, reference):
    fields = ("family_used", "n", "sse", "level", "trend", "params")
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


def counting(updates, sizes=None):
    """``smoothing._recurrence``, adding the (step, grid point) updates of
    each of its runs to ``updates[0]`` and, given ``sizes``, appending each
    run's grid size to it."""
    recurrence = smoothing._recurrence

    def run(y, alpha, **kwargs):
        if sizes is not None:
            sizes.append(alpha.size)
        steps = recurrence(y, alpha, **kwargs)
        for out in steps:
            updates[0] += out[1].shape[-1]
            keep = yield out
            if keep is not None:
                yield steps.send(keep)

    return run


def unpruned_updates(spec, family, n):
    """The updates of a float64 search of a fit alone that drops nothing: the
    grid's, plus those of its ``_STRIDE`` sample when the grid spans blocks."""
    size = smoothing._grid(replace(spec, family=family))["alpha"].size
    sample = -(-size // smoothing._STRIDE) if size > smoothing._BLOCK else 0
    return (size + sample) * (n - 1)


def pruned_and_reference(spec, series, monkeypatch):
    """:func:`blocked_and_reference`, plus the share of the unpruned updates
    the fit made."""
    updates = [0]
    with monkeypatch.context() as patch:
        patch.setattr(smoothing, "_recurrence", counting(updates))
        best, fitted = blocked_and_reference(spec, series)
    return best, fitted, updates[0] / unpruned_updates(spec, fitted.family_used, series.n)


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
    assert fitted.seasonal == (kind == "monthly_seasonal" and spec.family in smoothing.SEASONAL)


def fit_search(grid, y, dtype, margin):
    """A fit's one-member ``smoothing._search`` of ``grid`` on the 1-d ``y`` in
    ``dtype``: its least sanitised SSE and the indices it keeps at ``margin``."""
    score, *_, keep = smoothing._search(grid, [(y[:, None], [y.size], smoothing._SSE, None)], dtype, margin)[0]
    return score[0, 0], keep


@pytest.mark.parametrize("family", ["ses", "holt", "damped"])
def test_blocked_search_all_tied_picks_first_point(family):
    # with y = 2 every update is exact, so every grid point has SSE 0: no
    # partial SSE exceeds the bound 0, so a search in either dtype keeps the
    # whole tie across every block, and the fit's winner is grid index 0
    series = TimeSeries("c", np.full(24, 2.0))
    grid = smoothing._grid(ForecasterSpec(family))
    for dtype in (np.float32, np.float64):
        best, keep = fit_search(grid, series.values, dtype, 0.0)
        assert best == 0.0 and np.array_equal(keep, np.arange(grid["alpha"].size)), dtype
    best, fitted = blocked_and_reference(ForecasterSpec(family), series)
    assert best == 0 and fitted.sse == 0.0
    assert fitted.params == {
        "ses": {"alpha": 0.0},
        "holt": {"alpha": 0.0, "beta": 0.0},
        "damped": {"alpha": 0.0, "beta": 0.0, "phi": smoothing.PHI_MIN},
    }[family]


def test_blocked_search_grid_smaller_than_one_block(make_rw):
    spec = ForecasterSpec("damped", alpha=0.5, beta=0.1)
    assert smoothing._grid(spec)["alpha"].size < smoothing._BLOCK
    blocked_and_reference(spec, make_rw(8, 30, drift=0.5))


def test_blocked_search_minimum_beyond_first_block(make_rw):
    # Holt on a driftless random walk wants alpha near 1, i.e. a grid index
    # past the first block of the 10,201-point grid
    best, _ = blocked_and_reference(ForecasterSpec("holt"), make_rw(3, 40))
    assert best >= smoothing._BLOCK


def fake_recurrence(error_at, finals=None):
    """A stand-in for ``smoothing._recurrence`` whose one-step errors at each
    grid point are ``error_at(alpha)``, the same at every step. Like the real
    one it keeps only the grid points a consumer sends between two steps;
    ``finals`` collects the alphas still searched at each run's last step."""

    def recurrence(y, alpha, beta=None, phi=None, gamma=None, season=None):
        e = error_at(alpha)
        level = np.full(alpha.shape, y[-1])
        for t in range(1, len(y)):
            if finals is not None and t == len(y) - 1:
                finals.extend(alpha)
            keep = yield e, level, None, None
            if keep is not None:
                alpha, e, level = alpha[keep], e[keep], level[keep]
                yield

    return recurrence


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_blocked_search_first_finite_minimum_across_blocks(bad, monkeypatch):
    # NaN below alpha 0.1 and ``bad`` below 0.2 never win; alpha 0.2 is grid
    # index 20, the last point of the third 7-point float64 block, and its SSE
    # ties with every later point, in every block after it. The strided
    # sample's alpha 0.97 makes the first bound finite, so at the check after
    # y_8 the partial SSE of an inf point exceeds it and the point is dropped;
    # a NaN point compares false and is searched to the end
    monkeypatch.setattr(smoothing, "_BLOCK", 7)
    finals = []
    monkeypatch.setattr(smoothing, "_recurrence", fake_recurrence(
        lambda a: np.where(a < 0.1, np.nan, np.where(a < 0.2, bad, 1.0)), finals
    ))
    grid = smoothing._grid(ForecasterSpec("ses"))
    alpha = grid["alpha"]
    assert alpha[3 * 7 - 1] == 0.2
    series = TimeSeries("s", np.arange(10.0))
    best, keep = fit_search(grid, series.values, np.float64, 0.0)
    assert best == series.n - 1 and np.array_equal(keep, np.arange(20, alpha.size))
    pruned = alpha[(alpha >= 0.1) & (alpha < 0.2)] if bad == np.inf else alpha[:0]
    assert set(alpha) - set(finals) == set(pruned)
    # the fit (its grid spans blocks here, so it is screened) keeps the first finite minimum
    fitted = fit(ForecasterSpec("ses"), series)
    assert fitted.params == {"alpha": 0.2} and fitted.sse == series.n - 1


def test_blocked_search_no_finite_point_raises(monkeypatch):
    # no grid point has a finite SSE, so a fit's search keeps an infinite bound
    # and drops nothing in either dtype: every point, and the strided sample's
    # two, runs to the end. The screen then leaves the whole grid to the
    # float64 search, whose winner is infinite, and the fit raises
    monkeypatch.setattr(smoothing, "_BLOCK", 7)
    finals = []
    monkeypatch.setattr(smoothing, "_recurrence", fake_recurrence(
        lambda a: np.where(a < 0.5, np.nan, np.inf), finals
    ))
    grid = smoothing._grid(ForecasterSpec("ses"))
    size = grid["alpha"].size
    for dtype in (np.float32, np.float64):
        finals.clear()
        best, keep = fit_search(grid, np.arange(10.0), dtype, smoothing._MARGIN)
        assert best == np.inf and np.array_equal(keep, np.arange(size)), dtype
        assert len(finals) == size + len(range(0, size, smoothing._STRIDE)), dtype
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        fit(ForecasterSpec("ses"), TimeSeries("s", np.arange(10.0)))


# ---------------------------------------------------------------------------
# Early abandoning against the unpruned whole-grid reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["damped", "seasonal_damped"])
def test_pruned_search_equals_whole_grid(family, make_seasonal, monkeypatch):
    series = make_seasonal(4, 60, MONTHLY_PATTERN, noise=0.03)
    _, fitted, share = pruned_and_reference(ForecasterSpec(family), series, monkeypatch)
    assert fitted.family_used == family
    assert share < 0.9


@pytest.mark.parametrize("family", ["holt", "damped"])
def test_pruned_search_keeps_ties_at_the_minimum(family, monkeypatch):
    # a step from 2 to 5: (alpha, beta) = (1, 0) tracks it with one error of
    # 3, so SSE 9 ties at every phi and the first phi wins. Holt's grid fits one
    # float32 block, which runs no sample and prunes nothing, so half-size
    # blocks make its screen run a sample and prune as damped's does
    if family == "holt":
        monkeypatch.setattr(smoothing, "_BLOCK", smoothing._BLOCK // 2)
    series = TimeSeries("step", np.repeat([2.0, 5.0], 12))
    _, fitted, share = pruned_and_reference(ForecasterSpec(family), series, monkeypatch)
    assert (fitted.params["alpha"], fitted.params["beta"], fitted.sse) == (1.0, 0.0, 9.0)
    if family == "damped":
        assert fitted.params["phi"] == smoothing.PHI_MIN
        last_phi = ForecasterSpec(family, alpha=1.0, beta=0.0, phi=smoothing.PHI_MAX)
        assert fit(last_phi, series).sse == 9.0
    assert share < 0.9


def test_pruned_search_drops_overflowed_points(monkeypatch):
    # 14,075 of the damped grid points overflow to an infinite SSE here
    series = TimeSeries("o", [1e153, -1e153] * 5)
    _, fitted, share = pruned_and_reference(ForecasterSpec("damped"), series, monkeypatch)
    assert np.isfinite(fitted.sse) and share < 0.9


def test_pruned_search_with_no_finite_point_prunes_nothing(monkeypatch):
    # every point overflows in float64, so no bound is finite and a float64
    # search drops nothing. The float32 screen of the scaled series is finite,
    # but the float64 search of the points it keeps overflows, so the fit
    # raises as the whole-grid reference finds no finite SSE
    spec, series, updates = ForecasterSpec("damped"), TimeSeries("o", [1e200, -1e200] * 5), [0]
    grid = smoothing._grid(spec)
    with monkeypatch.context() as patch:
        patch.setattr(smoothing, "_recurrence", counting(updates))
        best, keep = fit_search(grid, series.values, np.float64, 0.0)
    assert best == np.inf and keep.size == grid["alpha"].size
    assert updates[0] == unpruned_updates(spec, "damped", series.n)
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        fit(spec, series)
    assert whole_grid_fit(spec, "damped", series)[1].sse == np.inf


def search_runs(call, monkeypatch):
    """(the grid size of each ``_recurrence`` run ``call()`` makes, their updates)."""
    updates, sizes = [0], []
    with monkeypatch.context() as patch:
        patch.setattr(smoothing, "_recurrence", counting(updates, sizes))
        call()
    return sizes, updates[0]


def blocks(size, width=None):
    """The sizes of the ``width``-point (default ``_BLOCK``) slices of a ``size``-point grid."""
    width = width or smoothing._BLOCK
    return [min(width, size - start) for start in range(0, size, width)]


def test_fit_spanning_blocks_runs_its_sample_and_prunes(make_seasonal, monkeypatch):
    # a fit's search of a grid that spans blocks runs its strided sample first,
    # in one block, then every block of the grid: the float32 screen's blocks
    # are twice as wide, for the same bytes. Above the screen's floor the
    # float64 search then runs only the points the screen kept. A constant
    # series fits with SSE 0, under the floor, so the screen stops after its
    # sample and the float64 search runs the whole grid, sample first, with
    # no search after it
    spec = ForecasterSpec("damped")
    size = smoothing._grid(spec)["alpha"].size
    sample = -(-size // smoothing._STRIDE)
    screen = [sample, *blocks(size, 2 * smoothing._BLOCK)]
    series = make_seasonal(4, 60, MONTHLY_PATTERN, noise=0.03)
    sizes, updates = search_runs(lambda: fit(spec, series), monkeypatch)
    assert sizes[:-1] == screen and 0 < sizes[-1] <= smoothing._BLOCK
    assert updates < unpruned_updates(spec, "damped", series.n)
    sizes, _ = search_runs(lambda: fit(spec, TimeSeries("c", np.full(24, 2.0))), monkeypatch)
    assert sizes == [sample, sample, *blocks(size)]


@pytest.mark.parametrize(
    "spec", [ForecasterSpec("ses"), ForecasterSpec("damped", alpha=0.3)], ids=["ses", "pinned"]
)
def test_fit_within_one_block_runs_no_sample_and_prunes_nothing(spec, make_rw, monkeypatch):
    series = make_rw(21, 40, drift=0.3)
    size = smoothing._grid(spec)["alpha"].size
    assert size <= smoothing._BLOCK
    sizes, updates = search_runs(lambda: fit(spec, series), monkeypatch)
    assert sizes == [size] and updates == size * (series.n - 1)


@pytest.mark.parametrize("family", ["holt", "holt_winters"])
def test_screen_within_one_float32_block_runs_no_sample(family, make_seasonal, monkeypatch):
    # the grid spans two float64 blocks but fits one float32 block: the screen
    # searches it whole with no sample and no pruning, then the float64 search
    # runs only the points it kept
    spec = ForecasterSpec(family)
    size = smoothing._grid(spec)["alpha"].size
    assert smoothing._BLOCK < size <= 2 * smoothing._BLOCK
    series = make_seasonal(4, 60, MONTHLY_PATTERN, noise=0.03)
    sizes, updates = search_runs(lambda: fit(spec, series), monkeypatch)
    assert sizes[0] == size and len(sizes) == 2 and 0 < sizes[1] < size
    assert updates == (size + sizes[1]) * (series.n - 1)


@pytest.mark.parametrize("origins", [[30], [20, 25, 30]], ids=["one_origin", "three_origins"])
def test_loss_table_spanning_blocks_prunes_nothing(origins, make_rw, monkeypatch):
    # a table's scores are quadratic forms in the errors of two inputs, which
    # may fall as the recursion runs, so no bound holds: even a one-origin
    # table makes every update of every block and runs no sample
    monkeypatch.setattr(smoothing, "_BLOCK", 7)
    series = make_rw(21, 40, drift=0.3)
    size = smoothing._grid(ForecasterSpec("ses"))["alpha"].size
    sizes, updates = search_runs(
        lambda: forecast_table(series, DEFAULT_THETA_GRID, origins, 6), monkeypatch
    )
    assert sizes == blocks(size) and updates == size * (max(origins) - 1)


# ---------------------------------------------------------------------------
# Float32 screen against the whole-grid reference
# ---------------------------------------------------------------------------

# the families whose full grids span more than one block, so their fits are screened
SCREENED = ["holt", "holt_winters", "damped", "seasonal_damped"]
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def drawn_series(seed, n, period, noise, offset):
    """A trended series of level 100, seasonal when ``period`` > 1, with
    relative noise ``noise`` and shifted by ``offset`` times its level."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = 100.0 * (1.0 + rng.uniform(-0.5, 1.5) * t / n)
    if period > 1:
        base = base * (1.0 + 0.3 * np.sin(2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi)))
    return TimeSeries("drawn", base * (1.0 + noise * rng.standard_normal(n)) + offset * 100.0, period)


def screen_dtypes(spec, series):
    """The dtype of each search over more than ``_BLOCK`` points that a fit of
    ``spec`` on ``series`` runs, after checking the fit against the whole-grid
    reference."""
    dtypes, search = [], smoothing._search

    def recording(grid, members, dtype=np.float64, *args):
        if grid["alpha"].size > smoothing._BLOCK:
            dtypes.append(np.dtype(dtype).name)
        return search(grid, members, dtype, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_search", recording)
        blocked_and_reference(spec, series)
    return dtypes


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(14, 90),
    period=st.sampled_from([1, 4, 12]),
    noise=st.floats(-7.0, np.log10(0.3)).map(lambda e: 10.0**e),
    offset=st.one_of(st.just(0.0), st.floats(-2.0, 4.0).map(lambda e: 10.0**e)),
)
def test_screen_equals_whole_grid_on_drawn_series(seed, n, period, noise, offset):
    # params, level, trend, season and forecasts bit-equal, on either path
    series = drawn_series(seed, n, period, noise, offset)
    for family in SCREENED:
        screen_dtypes(ForecasterSpec(family), series)


@pytest.mark.parametrize("family", SCREENED)
def test_screen_equals_whole_grid_on_exact_series(family):
    # a constant series fits with SSE 0 everywhere and an exact line or
    # pattern nearly so: below the floor, where the float64 search decides
    t = np.arange(1.0, 49.0)
    exact = [TimeSeries("flat", np.full(48, 7.0)), TimeSeries("line", 3.0 + 0.5 * t),
             TimeSeries("pattern", (200.0 + 1.5 * t) * np.array(MONTHLY_PATTERN)[(t.astype(int) - 1) % 12], 12)]
    dtypes = [screen_dtypes(ForecasterSpec(family), series) for series in exact]
    assert dtypes[0] == ["float32", "float64"]


@pytest.mark.parametrize("family", SCREENED)
def test_screen_equals_whole_grid_on_golden_corpus(family):
    counts = {"Yearly": 3, "Quarterly": 3, "Monthly": 3, "Other": 2}
    for entry in synthetic_dataset(42, counts).entries:
        screen_dtypes(ForecasterSpec(family), entry.series)


@pytest.mark.parametrize("family", SCREENED)
def test_screen_equals_whole_grid_on_lock_corpus(family, monkeypatch):
    # the benchmark's corpus model, with the es-benchmarks lock corpus's seed and counts
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    corpus = importlib.import_module("corpus")
    for entry in corpus.generate([20150311], {"Yearly": 2, "Quarterly": 2, "Monthly": 4}).entries:
        assert screen_dtypes(ForecasterSpec(family), entry.series) == ["float32"], entry.series.id


def test_screen_below_its_floor_runs_float64(monkeypatch):
    # a 550x offset leaves relative noise of about 1.3e-9 of max|y|, under
    # float32's resolution: the best RMS error is under 2**-12 of max|y|, so
    # the float64 search decides. Without the floor the float32 screen would
    # drop the float64 winner and keep a point with a larger SSE
    spec, series = ForecasterSpec("holt"), drawn_series(0, 87, 1, 7.2e-7, 550.0)
    assert screen_dtypes(spec, series) == ["float32", "float64"]
    fitted = fit(spec, series)
    monkeypatch.setattr(smoothing, "_FLOOR", 0.0)
    unfloored = fit(spec, series)
    assert unfloored.params != fitted.params and unfloored.sse > fitted.sse


def mixed_corpus(make_rw):
    """Random walks of many lengths, in no order and some of one length, plus a
    series too short for any fit, one on which the recursion overflows
    everywhere, a constant one and one too short for the trended families."""
    lengths = [23, 3, 41, 7, 59, 11, 30, 4, 47, 15, 19, 8, 30, 23, 30]
    walks = [make_rw(seed, n, drift=0.3, sid=f"rw{seed}") for seed, n in enumerate(lengths)]
    return [*walks[:4], TimeSeries("short", [4.0]), TimeSeries("wild", [1e200, -1e200] * 5),
            *walks[4:8], TimeSeries("flat", np.full(12, 3.0)), TimeSeries("two", [1.0, 2.0]), *walks[8:]]


@pytest.mark.parametrize(
    "spec",
    [ForecasterSpec("ses"), ForecasterSpec("holt", beta=0.1), ForecasterSpec("damped", alpha=0.3, beta=0.2)],
    ids=lambda spec: spec.family,
)
def test_packed_fits_equal_fits_alone(spec, make_rw, recorded_runs):
    # every series SES can fit shares one search, right-aligned on the member
    # axis; a trended fit runs alone, since padding would seed its trend with 0.
    # Each fit is bit-identical to a search of its series alone, and a series
    # that fails gets the error a fit of it alone raises
    corpus = mixed_corpus(make_rw)
    packed = smoothing.fit_all(spec, [(series, None) for series in corpus])
    runs = recorded_runs[:]
    members = sorted((s for s in corpus if s.n >= smoothing._min_n(spec.family)), key=lambda s: s.n)
    size = smoothing._grid(spec)["alpha"].size
    assert len(members) <= smoothing._BLOCK // size
    if spec.family == "ses":
        assert runs == [((members[-1].n, len(members), 1), size, [len(members)])]
    else:
        assert runs == [((s.n,), size, [1]) for s in members]
    failed = set()
    for series, result in zip(corpus, packed):
        try:
            alone = fit(spec, series)
        except ValueError as exc:
            assert isinstance(result, ValueError) and str(result) == str(exc), series.id
            failed.add(series.id)
            continue
        assert isinstance(result, FittedForecaster), series.id
        assert_same_fit(result, alone)
    assert failed == {"short", "wild"} | ({"two"} if spec.family != "ses" else set())


def test_a_fit_pack_scores_once(make_rw, recorded_runs):
    # every member of a pack ends at its longest n, so the 15 lengths of the
    # 18 series SES can fit share one scoring; a list with no series to fit runs
    # no search and returns only errors
    corpus = mixed_corpus(make_rw)
    assert len({s.n for s in corpus if s.n >= 2}) == 15
    smoothing.fit_all(ForecasterSpec("ses"), [(series, None) for series in corpus])
    assert [scored for *_, scored in recorded_runs] == [[18]]
    assert smoothing.fit_all(ForecasterSpec("ses"), []) == []
    short = [(TimeSeries("one", [4.0]), None), (TimeSeries("other", [1.0]), None)]
    assert all(isinstance(r, ValueError) for r in smoothing.fit_all(ForecasterSpec("ses"), short))
    assert all(isinstance(r, ValueError) for r in smoothing.fit_all(ForecasterSpec("holt"), short[:1]))
    assert len(recorded_runs) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_all_refuses_factors_that_do_not_match_the_family(family, make_seasonal):
    # a seasonal family's member carries factors and any other's carries None; a
    # member that breaks the rule gets its own error naming its series and family,
    # and the member beside it still gets the fit that fit() makes of its series
    series = make_seasonal(2, 24, [0.8, 1.2, 0.9, 1.1], noise=0.05)
    assert seasonality_applies(series)
    factors, seasonal = seasonal_indices(series).indices, family in smoothing.SEASONAL
    wrong, right = (None, factors) if seasonal else (factors, None)
    refused, fitted = smoothing.fit_all(ForecasterSpec(family), [(series, wrong), (series, right)])
    rule = "needs" if seasonal else "takes no"
    assert isinstance(refused, ValueError)
    assert str(refused) == f"series 'seas': family {family!r} {rule} seasonal factors"
    assert_same_fit(fitted, fit(ForecasterSpec(family), series))
    assert fitted.family_used == family


def test_fits_pack_block_size_series_per_search(make_rw, recorded_runs):
    # SES's 101-point grid packs 8192 // 101 = 81 series into one search
    corpus = [make_rw(seed, 10 + seed % 7, sid=f"rw{seed}") for seed in range(200)]
    smoothing.fit_all(ForecasterSpec("ses"), [(series, None) for series in corpus])
    assert [(shape[1], size, scored) for shape, size, scored in recorded_runs] == [
        (81, 101, [81]), (81, 101, [81]), (38, 101, [38])]


@pytest.mark.parametrize("spec", [ForecasterSpec("holt_winters", alpha=0.3), ForecasterSpec("holt_winters")],
                         ids=["pinned", "screened"])
def test_seasonal_fits_in_one_call_are_never_packed_and_keep_their_own_season(spec, make_seasonal,
                                                                               recorded_runs):
    # two seasonal series with different factors share one fit_all call, through
    # one search (pinned: one block) or a screen each; each runs alone, unpadded,
    # with its own factors, and so is bit-identical to its fit alone
    corpus = [make_seasonal(5, 48, MONTHLY_PATTERN, noise=0.02, sid="a"),
              make_seasonal(6, 60, MONTHLY_PATTERN[6:] + MONTHLY_PATTERN[:6], noise=0.05, sid="b")]
    seasons = [seasonal_indices(series).indices for series in corpus]
    assert seasons[0].tobytes() != seasons[1].tobytes()
    both = smoothing.fit_all(spec, list(zip(corpus, seasons)))
    assert all(len(shape) == 1 for shape, *_ in recorded_runs)  # one unpadded member per run
    for series, result in zip(corpus, both):
        alone = fit(spec, series)
        assert alone.family_used == "holt_winters"
        assert_same_fit(result, alone)


@pytest.mark.parametrize("family", FAMILIES)
def test_pinning_a_fits_own_params_reproduces_it(family, make_seasonal):
    series = make_seasonal(9, 48, [0.9, 1.1, 0.8, 1.2], noise=0.1)
    fitted = fit(ForecasterSpec(family), series)
    assert fitted.family_used == family
    assert_same_fit(fit(ForecasterSpec(family, **fitted.params), series), fitted)


@pytest.mark.parametrize(
    "pins", [{}, {"alpha": 0.3}, {"beta": 0.1, "gamma": 0.2, "phi": 0.9}], ids=["free", "a", "bgp"]
)
@pytest.mark.parametrize(
    "family, keys, size",
    [
        ("ses", "alpha", 101),
        ("holt", "alpha beta", 10_201),
        ("damped", "alpha beta phi", 193_819),
        ("holt_winters", "alpha beta gamma", 9_261),
        ("seasonal_damped", "alpha beta gamma phi", 175_959),
    ],
)
def test_grid_is_the_lexicographic_meshgrid(family, keys, size, pins, make_seasonal):
    spec = ForecasterSpec(family, **pins)
    grid = smoothing._grid(spec)
    assert list(grid) == keys.split()
    # a fit names exactly the grid's parameters, pinned ones included
    series = make_seasonal(2, 16, [0.9, 1.1, 0.8, 1.2], noise=0.05)
    season = seasonal_indices(series).indices if family in smoothing.SEASONAL else None
    (fitted,) = smoothing.fit_all(spec, [(series, season)])  # with a season the test would refuse
    assert fitted.family_used == family and list(fitted.params) == list(grid)
    dims = {k: np.unique(v) for k, v in grid.items()}
    assert all(dims[k].tolist() == [v] for k, v in pins.items() if k in dims)
    if not pins:
        assert grid["alpha"].size == size
    mesh = np.meshgrid(*dims.values(), indexing="ij")
    for v, m in zip(grid.values(), mesh):
        assert v.tobytes() == m.ravel().tobytes()


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        ForecasterSpec("arima")


def test_horizon_must_be_positive(make_rw):
    fitted = fit(ForecasterSpec("ses"), make_rw(0, 10))
    with pytest.raises(ValueError, match="horizon"):
        forecast(fitted, 0)


# ---------------------------------------------------------------------------
# Error-correction recurrence against the component-form reference
# ---------------------------------------------------------------------------


def component_form_recurrence(y, alpha, beta=None, phi=None, gamma=None, season=None):
    """Reference: the recursion in component form, with new state arrays each step,

        l' = alpha*y/s + (1 - alpha)*(l + phi*b)
        b' = beta*(l' - l) + (1 - beta)*phi*b
        s' = gamma*y/l' + (1 - gamma)*s

    under the contract of ``smoothing._recurrence``. It is the same recursion
    in exact arithmetic and rounds differently.
    """
    if beta is not None and phi is None:
        phi = 1.0  # Holt; multiplying by 1.0 is exact
    shape = np.broadcast_shapes(np.shape(y[0]), alpha.shape)
    level = np.full(shape, y[0])
    trend = None if beta is None else np.full(shape, y[1] - y[0])
    one_minus_alpha = 1.0 - alpha
    one_minus_beta = None if beta is None else 1.0 - beta
    if season is not None:
        period = season.size
        season = np.repeat(season[:, None], alpha.size, axis=1)
        one_minus_gamma = 1.0 - gamma
    e = np.empty(shape)
    for t in range(1, len(y)):
        pred = level if trend is None else level + phi * trend
        s = None if season is None else season[t % period]
        np.subtract(y[t], pred if s is None else pred * s, out=e)
        new_level = alpha * (y[t] if s is None else y[t] / s) + one_minus_alpha * pred
        del pred
        if trend is not None:
            trend = beta * (new_level - level) + one_minus_beta * (phi * trend)
        if s is not None:
            s *= one_minus_gamma
            s += gamma * (y[t] / new_level)
        level = new_level
        yield None if trend is not None and t < 2 else e, level, trend, season


# The two forms differ by rounding only: SSEs agree within SSE_RTOL and
# forecasts within FORECAST_RTOL. A different choice of parameters or theta
# is allowed only where the reference's losses at both choices tie within
# SSE_RTOL.
SSE_RTOL = 1e-12
FORECAST_RTOL = 1e-9


def assert_matches_component_form(family, series):
    fitted = fit(ForecasterSpec(family), series)
    _, reference = whole_grid_fit(
        ForecasterSpec(family), fitted.family_used, series, component_form_recurrence
    )
    if fitted.params != reference.params:
        # a flip: the reference at the new choice must tie with its own best
        pinned = ForecasterSpec(family, **fitted.params)
        best_sse = reference.sse
        _, reference = whole_grid_fit(pinned, fitted.family_used, series, component_form_recurrence)
        assert reference.sse == pytest.approx(best_sse, rel=SSE_RTOL, abs=0.0), (series.id, family)
    assert fitted.sse == pytest.approx(reference.sse, rel=SSE_RTOL, abs=0.0), (series.id, family)
    np.testing.assert_allclose(forecast(fitted, 18), forecast(reference, 18), rtol=FORECAST_RTOL)


@pytest.mark.parametrize("family", ["ses", "holt", "damped", "holt_winters", "seasonal_damped"])
@pytest.mark.parametrize("kind", ["monthly_seasonal", "random_walk"])
def test_error_correction_form_matches_component_form(family, kind, make_rw, make_seasonal):
    if kind == "random_walk":
        series = make_rw(21, 40, drift=0.3)
    else:
        series = make_seasonal(4, 60, MONTHLY_PATTERN, noise=0.03)
    assert_matches_component_form(family, series)


# Fits whose best points tie in exact arithmetic, so either form may pick
# either point: at alpha=1 the level is y/s and gamma has no effect; at
# alpha=0 the trend update is phi*b and beta has no effect.
@pytest.mark.parametrize(
    "seed, series_id, family",
    [(1, "M2", "holt_winters"), (1, "M2", "seasonal_damped"), (2, "Y4", "damped")],
)
def test_component_form_ties_are_admissible(seed, series_id, family):
    counts = {"Yearly": 4, "Quarterly": 4, "Monthly": 4, "Other": 2}
    entries = synthetic_dataset(seed, counts).entries
    assert_matches_component_form(family, next(e.series for e in entries if e.series.id == series_id))


@pytest.mark.parametrize(
    "extrapolator",
    [ForecasterSpec("ses"), ForecasterSpec("damped", alpha=0.3, beta=0.1)],
    ids=lambda spec: spec.family,
)
def test_theta_selection_matches_component_form(extrapolator, monkeypatch):
    entries = synthetic_dataset(42, {"Yearly": 2, "Quarterly": 1, "Monthly": 1, "Other": 1}).entries
    for entry in entries:
        series, h = entry.series, entry.h
        schedules = {a: scored_origins(approach_config(a, series.n, h), series.n) for a in APPROACHES}
        union = sorted({ni for origins in schedules.values() for ni in origins})
        with monkeypatch.context() as patch:
            patch.setattr(smoothing, "_recurrence", component_form_recurrence)
            reference = forecast_table(series, DEFAULT_THETA_GRID, union, h, extrapolator)
        table = forecast_table(series, DEFAULT_THETA_GRID, union, h, extrapolator)
        for ni in union:
            np.testing.assert_allclose(table[ni], reference[ni], rtol=FORECAST_RTOL)
        for cost in COST_FUNCTIONS:
            for approach, origins in schedules.items():
                config = approach_config(approach, series.n, h)
                chosen = estimate_theta(series, config=config, cost=cost, extrapolator=extrapolator)
                g = COST_FUNCTIONS[cost]
                scored = [g(series.values[ni : ni + h], reference[ni][:, : series.n - ni])
                          for ni in sorted(origins)]
                losses = dict(zip(DEFAULT_THETA_GRID, sum(a.sum(axis=1) for a in scored)))
                best = min(DEFAULT_THETA_GRID, key=lambda theta: (losses[theta], theta))
                if chosen != best:
                    assert losses[chosen] == pytest.approx(losses[best], rel=SSE_RTOL, abs=0.0), (
                        series.id, approach, cost, chosen, best,
                    )


# ---------------------------------------------------------------------------
# Metamorphic: scaling by a power of two
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [-7, 3, 40])
@pytest.mark.parametrize("family", FAMILIES)
def test_power_of_two_scale_scales_the_fit_exactly(family, k, make_seasonal):
    # the float32 screen normalises y by a power of two, so it sees the same
    # input at every k; the float64 search then scales bit for bit
    series = make_seasonal(9, 48, [0.9, 1.1, 0.8, 1.2], noise=0.1)
    base = fit(ForecasterSpec(family), series)
    moved = fit(ForecasterSpec(family), series.with_values(np.ldexp(series.values, k)))
    assert (moved.family_used, moved.params) == (base.family_used, base.params)
    assert (moved.level, moved.trend) == (np.ldexp(base.level, k), np.ldexp(base.trend, k))
    assert moved.sse == np.ldexp(base.sse, 2 * k)
    assert base.season is None or moved.season.tobytes() == base.season.tobytes()
    assert forecast(moved, 18).tobytes() == np.ldexp(forecast(base, 18), k).tobytes()


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-6, 6),
    seasonal=st.booleans(),
    approach=st.sampled_from(APPROACHES),
)
def test_scaling_by_a_power_of_two_is_exact(seed, k, seasonal, approach):
    # multiplying by c = 2**k is exact, and every step of the fits and of
    # theta selection either scales by c or cancels it, so nothing rounds
    # differently: parameters and theta are identical, SSEs and forecasts
    # scale bit for bit
    c = 2.0**k
    rng = np.random.default_rng(seed)
    n, h = 36, 8
    if seasonal:
        t = np.arange(n)
        y = (100.0 + 1.5 * t) * np.array([0.8, 1.2, 0.9, 1.1])[t % 4] * np.exp(rng.normal(0, 0.05, n))
    else:
        y = 100.0 + np.cumsum(rng.normal(0.3, 2.0, n))
    series = TimeSeries("s", y, 4 if seasonal else 1)
    scaled = series.with_values(c * y)
    for family in FAMILIES:
        base = fit(ForecasterSpec(family), series)
        moved = fit(ForecasterSpec(family), scaled)
        assert moved.params == base.params, family
        assert moved.sse == base.sse * c * c, family
        assert np.array_equal(forecast(moved, h), forecast(base, h) * c), family
    config = approach_config(approach, n, h)
    for cost in COST_FUNCTIONS:
        assert estimate_theta(scaled, config=config, cost=cost) == estimate_theta(
            series, config=config, cost=cost
        ), cost
