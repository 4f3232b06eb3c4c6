import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from optitheta import (
    APPROACHES,
    EvaluationError,
    GroeConfig,
    TimeSeries,
    approach_config,
    estimate_theta,
    groe_loss,
    origin_schedule,
    otm_candidate,
    p_max,
    synthetic_dataset,
)
from optitheta import smoothing
from optitheta.groe import (
    COST_FUNCTIONS, DEFAULT_THETA_GRID, ae, loss_table, resolve_cost, sape, scored_origins, se,
    select_theta,
)
from optitheta.pipeline import MethodSpec, SeriesContext, run_method
from optitheta.series import fit_linear_trend, trend_value
from optitheta.smoothing import ForecasterSpec
from optitheta.theta import SES


def naive_candidate(prefix, horizon):
    return np.full(horizon, prefix[-1])


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------


def test_cost_values():
    assert se(3.0, 1.0) == 4.0
    assert ae(3.0, 1.0) == 2.0
    assert sape(3.0, 1.0) == pytest.approx(1.0)


def test_sape_guards():
    assert sape(0.0, 0.0) == 0.0
    assert sape(0.0, 5.0) == pytest.approx(2.0)
    assert sape(-5.0, 0.0) == pytest.approx(2.0)


def test_costs_are_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=200), rng.normal(size=200)
    for g in COST_FUNCTIONS.values():
        assert np.allclose(g(a, b), g(b, a))


# ---------------------------------------------------------------------------
# p_max and schedules
# ---------------------------------------------------------------------------


def test_p_max_examples():
    assert p_max(64, 25, 13) == 4  # origins 25, 38, 51, 64
    assert p_max(10, 9, 1) == 2
    assert p_max(10, 2, 3) == 3  # origins 2, 5, 8


def test_p_max_matches_enumeration():
    for n in range(5, 40):
        for n1 in range(2, n):
            for m in (1, 2, 3, 5, 11):
                count, origin = 0, n1
                while origin <= n:
                    count += 1
                    origin += m
                assert p_max(n, n1, m) == count


def test_p_max_domain_errors():
    with pytest.raises(ValueError):
        p_max(10, 1, 1)
    with pytest.raises(ValueError):
        p_max(10, 10, 1)
    with pytest.raises(ValueError):
        p_max(10, 5, 0)


def test_origin_schedule_examples():
    assert origin_schedule(GroeConfig(p=3, m=13, H=13, n1=25), 64) == [25, 38, 51]
    assert origin_schedule(GroeConfig(p=1, m=5, H=5, n1=7), 20) == [7]
    assert origin_schedule(GroeConfig(p=4, m=2, H=1, n1=3), 12) == [3, 5, 7, 9]


def test_config_rejects_non_integral_fields():
    with pytest.raises(ValueError, match="p must be an integer, got 1.5"):
        GroeConfig(p=1.5, m=1, H=1, n1=3)
    with pytest.raises(ValueError, match="n1 must be an integer, got 2.9"):
        GroeConfig(p=1, m=1, H=1, n1=2.9)
    with pytest.raises(ValueError, match="H must be an integer, got inf"):
        GroeConfig(p=1, m=1, H=float("inf"), n1=3)
    assert GroeConfig(p=2.0, m=1, H=1, n1=3) == GroeConfig(p=2, m=1, H=1, n1=3)


def test_origin_schedule_rejects_excess_p():
    with pytest.raises(ValueError, match="exceeds p_max"):
        origin_schedule(GroeConfig(p=5, m=13, H=13, n1=25), 64)


# ---------------------------------------------------------------------------
# the loss
# ---------------------------------------------------------------------------


def test_loss_hand_enumerated():
    series = TimeSeries("s", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    config = GroeConfig(p=2, m=2, H=2, n1=2)
    # origins 2 and 4: (3-2)^2+(4-2)^2 + (5-4)^2+(6-4)^2 = 10
    assert groe_loss(series, naive_candidate, config, "se") == pytest.approx(10.0)


def test_loss_zero_length_origins_drop_out(make_rw):
    series = make_rw(4, 20)
    with_tail = GroeConfig(p=3, m=5, H=5, n1=10)  # origins 10, 15, 20; last adds nothing
    without = GroeConfig(p=2, m=5, H=5, n1=10)
    assert groe_loss(series, naive_candidate, with_tail) == pytest.approx(
        groe_loss(series, naive_candidate, without)
    )


def test_loss_monotone_in_p(make_rw):
    series = make_rw(5, 30)
    limit = p_max(30, 6, 3)
    losses = [
        groe_loss(series, naive_candidate, GroeConfig(p=p, m=3, H=4, n1=6))
        for p in range(1, limit + 1)
    ]
    assert all(b >= a for a, b in zip(losses, losses[1:]))


def test_loss_propagates_candidate_failure(make_rw):
    def broken(prefix, horizon):
        raise RuntimeError("boom")

    series = make_rw(6, 15)
    with pytest.raises(EvaluationError, match="origin 5"):
        groe_loss(series, broken, GroeConfig(p=1, m=1, H=2, n1=5))


def test_loss_checks_forecast_shape(make_rw):
    series = make_rw(6, 15)
    config = GroeConfig(p=1, m=1, H=3, n1=5)
    with pytest.raises(EvaluationError, match="shape"):
        groe_loss(series, lambda prefix, h: np.ones(h + 1), config)


def test_unknown_cost_rejected(make_rw):
    # only the named costs are accepted; a callable is not one of them
    series = make_rw(6, 15)
    for cost in ("rmse", lambda actual, forecast: (actual - forecast) ** 2):
        with pytest.raises(ValueError, match="unknown cost"):
            groe_loss(series, naive_candidate, GroeConfig(p=1, m=1, H=2, n1=5), cost)
        with pytest.raises(ValueError, match="unknown cost"):
            estimate_theta(series, config=approach_config("a", 15, 3), cost=cost)


# ---------------------------------------------------------------------------
# approach table
# ---------------------------------------------------------------------------


def test_approach_rows_for_n100_h10():
    expected = {
        "a": (1, 10, 10, 90),
        "b": (2, 5, 10, 90),
        "c": (3, 4, 10, 90),
        "d": (10, 1, 10, 90),
        "e": (2, 10, 10, 80),
        "f": (4, 5, 10, 80),
        "g": (6, 4, 10, 80),
        "h": (10, 1, 10, 80),
    }
    for approach, (p, m, H, n1) in expected.items():
        config = approach_config(approach, 100, 10)
        assert (config.p, config.m, config.H, config.n1) == (p, m, H, n1)


def test_approach_examples():
    assert approach_config("a", 50, 8) == GroeConfig(p=1, m=8, H=8, n1=42)
    assert approach_config("e", 20, 6) == GroeConfig(p=2, m=6, H=6, n1=8)
    # raw n1 = 14 - 12 = 2 is clamped to 4
    assert approach_config("f", 14, 6) == GroeConfig(p=4, m=3, H=6, n1=4)


def test_approach_p_clamped_by_p_max():
    # (d) with a short series: p_max limits the number of origins
    config = approach_config("d", 12, 6)
    assert config.n1 == 6
    assert config.p == min(6, p_max(12, 6, 1))


def test_approach_errors():
    with pytest.raises(ValueError, match="too short"):
        approach_config("a", 8, 8)
    with pytest.raises(ValueError, match="unknown approach"):
        approach_config("z", 50, 8)
    with pytest.raises(ValueError, match="degenerate"):
        approach_config("a", 4, 2)  # clamped n1 = 4 >= n


# ---------------------------------------------------------------------------
# theta estimation
# ---------------------------------------------------------------------------


def test_singleton_grid(make_rw):
    series = make_rw(7, 40)
    config = approach_config("a", 40, 6)
    assert estimate_theta(series, grid=(2.0,), config=config) == 2.0


def test_constant_series_ties_break_to_smallest_theta():
    series = TimeSeries("s", np.full(30, 7.0))
    config = approach_config("a", 30, 6)
    assert estimate_theta(series, config=config) == 1.0


def test_estimate_matches_brute_force_oracle(make_rw):
    for seed in (1, 2, 3):
        series = make_rw(seed, 48, drift=0.3)
        config = approach_config("a", 48, 8)
        chosen = estimate_theta(series, config=config, cost="se")
        # independent re-evaluation of all nine candidates
        losses = {}
        for theta in DEFAULT_THETA_GRID:
            cand = otm_candidate(theta)
            total = 0.0
            for ni in origin_schedule(config, series.n):
                horizon = min(config.H, series.n - ni)
                if horizon == 0:
                    continue
                fx = cand(series.values[:ni], horizon)
                total += float(np.sum((series.values[ni : ni + horizon] - fx) ** 2))
            losses[theta] = total
        best = min(losses, key=lambda t: (losses[t], t))
        assert chosen == best
        assert chosen in DEFAULT_THETA_GRID


def test_loss_scales_with_the_cost_degree(make_rw):
    # with a non-refit alpha the candidate is exactly scale-equivariant, so
    # SE losses scale by c^2 and AE losses by c
    spec = ForecasterSpec("ses", alpha=0.4)
    series = make_rw(21, 32, drift=0.1)
    config = approach_config("c", 32, 6)
    cand = otm_candidate(2.0, spec)
    base_se = groe_loss(series, cand, config, "se")
    base_ae = groe_loss(series, cand, config, "ae")
    for c in (0.5, 12.0):
        scaled = series.with_values(c * series.values)
        assert groe_loss(scaled, cand, config, "se") == pytest.approx(c**2 * base_se, rel=1e-9)
        assert groe_loss(scaled, cand, config, "ae") == pytest.approx(c * base_ae, rel=1e-9)


def test_estimate_scale_invariant_with_pinned_alpha(make_rw):
    spec = ForecasterSpec("ses", alpha=0.35)
    for cost in ("se", "ae"):
        series = make_rw(8, 36, drift=0.2)
        config = approach_config("b", 36, 6)
        base = estimate_theta(series, config=config, cost=cost, extrapolator=spec)
        for c in (0.25, 40.0):
            scaled = series.with_values(c * series.values)
            assert estimate_theta(scaled, config=config, cost=cost, extrapolator=spec) == base


def test_estimate_rejects_bad_grids(make_rw):
    series = make_rw(9, 30)
    config = approach_config("a", 30, 5)
    with pytest.raises(ValueError, match="non-empty"):
        estimate_theta(series, grid=(), config=config)
    with pytest.raises(ValueError, match=">= 1"):
        estimate_theta(series, grid=(0.5, 2.0), config=config)
    with pytest.raises(ValueError, match="ascending"):
        estimate_theta(series, grid=(2.0, 1.5), config=config)


def test_estimate_raises_when_all_candidates_fail():
    # a two-point prefix cannot support the trended extrapolators
    series = TimeSeries("s", np.arange(1.0, 7.0))
    config = GroeConfig(p=1, m=1, H=1, n1=2)
    with pytest.raises(EvaluationError, match="every theta candidate failed"):
        estimate_theta(series, config=config, extrapolator=ForecasterSpec("damped"))


def test_loss_table_calls_the_cost_once_per_origin(make_rw, monkeypatch):
    # every grid theta of an origin is scored by one call on a (thetas, horizon) array
    calls = []

    def counting(actual, forecast):
        calls.append(forecast.shape)
        return se(actual, forecast)

    monkeypatch.setitem(COST_FUNCTIONS, "se", counting)
    series = make_rw(11, 40, drift=0.2)
    config = approach_config("d", 40, 6)
    origins = scored_origins(config, series.n)
    loss_table(series, DEFAULT_THETA_GRID, origins, config.H, "se")
    assert calls == [(len(DEFAULT_THETA_GRID), min(config.H, series.n - ni)) for ni in origins]


@pytest.mark.parametrize("H", [0, -4])
def test_loss_table_rejects_a_horizon_below_one(H):
    series = synthetic_dataset(1).entries[0].series
    with pytest.raises(ValueError, match="horizon"):
        loss_table(series, DEFAULT_THETA_GRID, [series.n - 6], H)


def test_select_theta_rejects_empty_origins():
    with pytest.raises(ValueError, match="origins must be non-empty"):
        select_theta((1.0, 2.0, 3.0), {}, [])


# ---------------------------------------------------------------------------
# blocked search against the whole-grid reference
# ---------------------------------------------------------------------------


def whole_grid_loss_table(series, grid, origins, H, cost="se", extrapolator=SES):
    """Reference for ``loss_table``: one ``_recurrence`` run of the two
    superposed inputs over the whole extrapolator grid, summing the 2x2 error
    products; at each origin the first argmin of every theta's sanitised
    quadratic-form SSE, read before the next step updates the states in place.
    """
    theta = np.array(grid, dtype=np.float64)[:, None]
    g = resolve_cost(cost)
    y, n = series.values, series.n
    horizons = {ni: min(H, n - ni) for ni in origins}
    params = smoothing._grid(extrapolator, extrapolator.family)
    full = fit_linear_trend(series)
    t = np.arange(1.0, n + 1)
    runs = np.stack([y - trend_value(full, t), t], axis=1)[:, :, None]
    cross = np.zeros((3,) + params["alpha"].shape)  # e0*e0, e0*e1, e1*e1
    products = np.empty_like(cross)
    table = {}
    with np.errstate(all="ignore"):
        for ni, (e, level, trend, _) in enumerate(smoothing._recurrence(runs, **params), start=2):
            if e is not None:
                np.multiply(e[0], e, out=products[:2])
                np.multiply(e[1], e[1], out=products[2])
                cross += products
            if ni not in horizons:
                continue
            prefix_fit = fit_linear_trend(series.prefix(ni))
            c1 = theta * full.intercept + (1.0 - theta) * prefix_fit.intercept
            c2 = theta * full.slope + (1.0 - theta) * prefix_fit.slope
            weights = np.hstack([theta * theta, theta * c2, theta * c2, c2 * c2])
            best = np.argmin(smoothing._sanitize(weights @ cross[[0, 1, 1, 2]]), axis=1, keepdims=True)
            k = np.arange(1, horizons[ni] + 1)
            line = theta * level[0][best] + c1 + c2 * level[1][best]
            if trend is not None:
                slope = theta * trend[0][best] + c2 * trend[1][best]
                line = line + np.cumsum(params["phi"][best] ** k, axis=1) * slope
            fx = (1.0 - 1.0 / theta) * trend_value(prefix_fit, ni + k) + (1.0 / theta) * line
            table[ni] = g(y[ni : ni + k.size], fx).sum(axis=1)
    return table


# pinned damped grids of 1,919 points keep a 7-point block cheap
@pytest.mark.parametrize(
    "extrapolator",
    [SES, ForecasterSpec("damped", alpha=0.3), ForecasterSpec("damped", beta=0.1)],
    ids=["ses", "damped-alpha", "damped-beta"],
)
def test_blocked_loss_table_equals_whole_grid(extrapolator, monkeypatch):
    # an odd block puts many block boundaries inside the grid and leaves a
    # ragged last block
    monkeypatch.setattr(smoothing, "_BLOCK", 7)
    counts = {"Yearly": 2, "Quarterly": 1, "Monthly": 0, "Other": 1}
    for entry in synthetic_dataset(42, counts).entries:
        series, h = entry.series, entry.h
        union = sorted({
            ni for a in APPROACHES for ni in scored_origins(approach_config(a, series.n, h), series.n)
        })
        for cost in COST_FUNCTIONS:
            table = loss_table(series, DEFAULT_THETA_GRID, union, h, cost, extrapolator)
            reference = whole_grid_loss_table(series, DEFAULT_THETA_GRID, union, h, cost, extrapolator)
            assert table.keys() == reference.keys()
            for ni in union:
                assert table[ni].tobytes() == reference[ni].tobytes(), (series.id, ni, cost)


# ---------------------------------------------------------------------------
# superposition against the re-fitting reference
# ---------------------------------------------------------------------------

EXTRAPOLATORS = {
    "ses": ForecasterSpec("ses"),
    # pinned weights leave only the 19-point phi grid, which keeps the
    # re-fitting reference affordable
    "damped": ForecasterSpec("damped", alpha=0.3, beta=0.1),
}


def reference_losses(series, config, spec, costs=tuple(COST_FUNCTIONS)):
    """``groe_loss`` of ``otm_candidate`` per (cost, theta); each prefix is fitted once."""
    losses = {}
    for theta in DEFAULT_THETA_GRID:
        candidate = otm_candidate(theta, spec)
        fitted = {}

        def once(prefix, horizon, candidate=candidate, fitted=fitted):
            key = (prefix.size, horizon)
            if key not in fitted:
                fitted[key] = candidate(prefix, horizon)
            return fitted[key]

        for cost in costs:
            losses[cost, theta] = groe_loss(series, once, config, cost)
    return losses


def assert_matches_reference(series, config, spec, costs=tuple(COST_FUNCTIONS)):
    """The reference's theta, unless the reference's losses tie within 1e-9 relative."""
    losses = reference_losses(series, config, spec, costs)
    for cost in costs:
        chosen = estimate_theta(series, config=config, cost=cost, extrapolator=spec)
        best = min(DEFAULT_THETA_GRID, key=lambda theta: (losses[cost, theta], theta))
        if chosen != best:
            assert losses[cost, chosen] == pytest.approx(losses[cost, best], rel=1e-9, abs=0.0), (
                series.id, config, cost, spec, chosen, best,
            )


@pytest.mark.parametrize("family", sorted(EXTRAPOLATORS))
def test_superposition_matches_reference_on_corpus(family):
    counts = {"Yearly": 2, "Quarterly": 1, "Monthly": 1, "Other": 1}
    for entry in synthetic_dataset(42, counts).entries:
        for approach in APPROACHES:
            config = approach_config(approach, entry.series.n, entry.h)
            assert_matches_reference(entry.series, config, EXTRAPOLATORS[family])


def test_superposition_keeps_the_o18_tie():
    # the reference's losses of theta 4.5 and 5.0 are equal to the last bit
    # here, so either choice is admissible
    counts = {"Yearly": 50, "Quarterly": 50, "Monthly": 50, "Other": 20}
    entry = next(e for e in synthetic_dataset(42, counts).entries if e.series.id == "O18")
    config = approach_config("a", entry.series.n, entry.h)
    losses = reference_losses(entry.series, config, EXTRAPOLATORS["ses"], ("ae",))
    assert losses["ae", 4.5] == losses["ae", 5.0] == min(losses.values())
    assert_matches_reference(entry.series, config, EXTRAPOLATORS["ses"], ("ae",))


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 48),
    h=st.integers(1, 8),
    drift=st.floats(-3.0, 3.0),
    approach=st.sampled_from(APPROACHES),
    family=st.sampled_from(sorted(EXTRAPOLATORS)),
)
def test_superposition_matches_reference_on_random_walks(seed, n, h, drift, approach, family):
    rng = np.random.default_rng(seed)
    series = TimeSeries("rw", 100.0 + np.cumsum(rng.normal(drift, 2.0, n)))
    try:
        config = approach_config(approach, n, h)
    except ValueError:
        assume(False)
    assert_matches_reference(series, config, EXTRAPOLATORS[family])


# ---------------------------------------------------------------------------
# shift equivariance
# ---------------------------------------------------------------------------


def shifted_series():
    """(series, h, shifts): the non-seasonal series of a fixed corpus, with
    three shifts each, one of which takes the series halfway down to zero."""
    counts = {"Yearly": 50, "Quarterly": 0, "Monthly": 0, "Other": 20}
    for entry in synthetic_dataset(42, counts).entries:
        assert entry.series.period == 1
        yield entry.series, entry.h, (12.5, 1e3, -0.5 * entry.series.values.min())


def assert_selections_kept(series, h, moved, cost):
    """Each approach's theta on every series of ``moved`` is its theta on
    ``series``, unless ``series``'s losses of the two tie within 1e-9 relative.
    Returns the number of selections compared. Each schedule selects from one
    table over every schedule's origins, as estimate_theta would from its own
    (see test_pipeline::test_estimate_theta_equals_selection_over_a_union_table).
    """
    configs = {}
    for approach in APPROACHES:
        try:
            configs[approach] = approach_config(approach, series.n, h)
        except ValueError:
            continue
    own = {a: scored_origins(config, series.n) for a, config in configs.items()}
    union = sorted({ni for origins in own.values() for ni in origins})
    table = loss_table(series, DEFAULT_THETA_GRID, union, h, cost)
    selections = 0
    for k, other in enumerate(moved):
        moved_table = loss_table(other, DEFAULT_THETA_GRID, union, h, cost)
        for approach, origins in own.items():
            base = select_theta(DEFAULT_THETA_GRID, table, origins)
            chosen = select_theta(DEFAULT_THETA_GRID, moved_table, origins)
            selections += 1
            if chosen != base:
                losses = dict(zip(DEFAULT_THETA_GRID, sum(table[ni] for ni in origins)))
                assert losses[chosen] == pytest.approx(losses[base], rel=1e-9, abs=0.0), (
                    series.id, k, approach, base, chosen,
                )
    return selections


@pytest.mark.parametrize("cost", ["se", "ae"])
def test_shift_leaves_theta_unchanged(cost):
    # se and ae see only y - forecast, and every candidate forecast moves
    # with y; sape divides by the level, so it is not shift-invariant.
    selections = 0
    for series, h, shifts in shifted_series():
        moved = [series.with_values(series.values + c) for c in shifts]
        selections += assert_selections_kept(series, h, moved, cost)
    assert selections == 70 * 3 * 8


def test_shift_moves_the_forecasts_by_the_constant():
    spec = MethodSpec.otm("a")
    for series, h, shifts in shifted_series():
        base = run_method(series, h, spec)
        for c in shifts:
            moved = run_method(series.with_values(series.values + c), h, spec)
            assert moved.theta == base.theta
            np.testing.assert_allclose(moved.forecasts, base.forecasts + c, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# scale equivariance
# ---------------------------------------------------------------------------

SCALES = (0.37, 3.1, 1e3)


def scaled_series():
    """(series, h): the shift tests' corpus plus its seasonal groups. Unlike
    a shift, scaling keeps multiplicative seasonality exact."""
    counts = {"Yearly": 50, "Quarterly": 50, "Monthly": 50, "Other": 20}
    for entry in synthetic_dataset(42, counts).entries:
        yield entry.series, entry.h


@pytest.mark.parametrize("cost", ["se", "ae", "sape"])
def test_scale_leaves_theta_unchanged(cost):
    # every candidate forecast scales with y, so se losses scale by c**2, ae
    # by c and sape not at all; the seasonal indices are ratios, so they stay
    # and the adjusted series scales too
    selections = 0
    for series, h in scaled_series():
        indices, work = SeriesContext(series, h).adjusted()
        moved = []
        for c in SCALES:
            scaled = series.with_values(c * series.values)
            scaled_indices, scaled_work = SeriesContext(scaled, h).adjusted()
            assert (scaled_indices is None) == (indices is None)
            moved.append(scaled_work)
        selections += assert_selections_kept(work, h, moved, cost)
    assert selections == 170 * 3 * 8


def test_scale_multiplies_the_forecasts_by_the_constant():
    spec = MethodSpec.otm("a")
    for series, h in scaled_series():
        base = run_method(series, h, spec)
        for c in SCALES:
            moved = run_method(series.with_values(c * series.values), h, spec)
            assert moved.theta == base.theta
            np.testing.assert_allclose(moved.forecasts, c * base.forecasts, rtol=1e-12, atol=0.0)
