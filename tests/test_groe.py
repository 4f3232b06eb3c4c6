import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from optitheta import (
    APPROACHES,
    EvaluationError,
    GroeConfig,
    TimeSeries,
    approach_config,
    estimate_theta,
    origin_schedule,
    p_max,
    synthetic_dataset,
)
from optitheta import smoothing
from optitheta.groe import (
    COST_FUNCTIONS, DEFAULT_THETA_GRID, MIN_FIRST_ORIGIN, ae, forecast_table, loss_rows, sape,
    scored_origins, se, select_theta,
)
from optitheta.pipeline import MethodSpec, SeriesContext, run_method
from optitheta.series import fit_linear_trend, trend_value
from optitheta.smoothing import ForecasterSpec
from optitheta.theta import SES, otm_forecast
from reference import groe_loss, otm_candidate


def naive_candidate(prefix, horizon):
    return np.full(horizon, prefix[-1])


def table_losses(series, table, origins, cost):
    """Each grid theta's GROE loss over ``origins``, scored from a forecast table."""
    total = 0.0
    for ni in sorted(origins):
        actual = series.values[ni : ni + table[ni].shape[1]]
        total = total + COST_FUNCTIONS[cost](actual, table[ni][:, : actual.size]).sum(axis=1)
    return total


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
    # 2*|a-b| is above the largest float here, while |a| + |b| is not
    assert sape(1e308, -1e307) == 2.0


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


def test_every_approach_has_origins_exactly_when_n_exceeds_h_and_the_first_origin():
    # GROE eligibility depends on n and h, never on the approach, so a token
    # that reaches SeriesContext's shared table finds origins for every token
    # that shares it
    for n in range(1, 151):
        for h in range(1, 41):
            found = []
            for approach in APPROACHES:
                try:
                    found.append(bool(scored_origins(approach_config(approach, n, h), n)))
                except ValueError:
                    found.append(False)
            assert found == [n > max(h, MIN_FIRST_ORIGIN)] * len(APPROACHES), (n, h)


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


def overflow_scale_series():
    """A period-1 random walk near 1e200, whose squares overflow float64."""
    steps = np.random.default_rng(0).standard_normal(30)
    return TimeSeries("big", 1e200 * (1.0 + 0.01 * np.cumsum(steps)))


def test_overflow_scale_series_has_no_finite_loss():
    # the table's weights and the cost overflow; under warnings-as-errors the
    # caller still gets the documented error, not a RuntimeWarning
    series = overflow_scale_series()
    with pytest.raises(EvaluationError, match="no finite loss"):
        estimate_theta(series, config=approach_config("a", series.n, 6), cost="se")


def test_overflow_scale_series_fails_at_checkpoint_n():
    series = overflow_scale_series()
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        run_method(series, 6, MethodSpec.otm("d"))


def test_loss_table_calls_the_cost_once_per_origin(make_rw, monkeypatch):
    # loss_rows scores every origin whose window holds all H observations in
    # one call on a (origins, thetas, H) array of the forecast table, then
    # each origin with a shorter window by one call on its (thetas, window)
    calls = []

    def counting(actual, forecast):
        calls.append(forecast.shape)
        return se(actual, forecast)

    monkeypatch.setitem(COST_FUNCTIONS, "se", counting)
    series = make_rw(11, 40, drift=0.2)
    H = 6
    origins = sorted({ni for a in ("d", "h") for ni in scored_origins(approach_config(a, 40, H), 40)})
    full = [ni for ni in origins if ni + H <= series.n]
    assert len(full) == 7 and len(origins) == 12
    table = forecast_table(series, DEFAULT_THETA_GRID, origins, H)
    loss_rows(series, DEFAULT_THETA_GRID, table, origins, "se")
    thetas = len(DEFAULT_THETA_GRID)
    assert calls == [(len(full), thetas, H)] + [(thetas, series.n - ni) for ni in origins[len(full):]]


@pytest.mark.parametrize("cost", COST_FUNCTIONS)
def test_loss_rows_equal_one_cost_call_per_origin(cost):
    # reference: the cost of each origin's rows on the observations after it,
    # one call per origin; the stacked call for the full windows is bit-identical
    g = COST_FUNCTIONS[cost]
    for entry in synthetic_dataset(42, {"Yearly": 2, "Quarterly": 1, "Monthly": 1, "Other": 1}):
        series, h = entry.series, entry.h
        origins = sorted({ni for a in APPROACHES
                          for ni in scored_origins(approach_config(a, series.n, h), series.n)})
        table = forecast_table(series, DEFAULT_THETA_GRID, origins, h)
        rows = loss_rows(series, DEFAULT_THETA_GRID, table, origins, cost)
        assert list(rows) == origins
        for ni in origins:
            actual = series.values[ni : ni + h]
            reference = g(actual, table[ni][:, : actual.size]).sum(axis=1)
            assert rows[ni].tobytes() == reference.tobytes(), (series.id, ni)


@pytest.mark.parametrize("H", [0, -4])
def test_loss_table_rejects_a_horizon_below_one(H):
    series = synthetic_dataset(1).entries[0].series
    with pytest.raises(ValueError, match="horizon"):
        forecast_table(series, DEFAULT_THETA_GRID, [series.n - 6], H)


def test_select_theta_rejects_empty_origins():
    with pytest.raises(ValueError, match="origins must be non-empty"):
        select_theta(TimeSeries("s", np.arange(1.0, 9.0)), (1.0, 2.0, 3.0), {}, [])


# ---------------------------------------------------------------------------
# blocked search against the whole-grid reference
# ---------------------------------------------------------------------------


def whole_grid_forecast_table(series, grid, origins, H, extrapolator=SES):
    """Reference for ``forecast_table``: one ``_recurrence`` run of the two
    superposed inputs over the whole extrapolator grid, summing the 2x2 error
    products; at each origin the first argmin of every theta's sanitised
    quadratic-form SSE, read before the next step updates the states in place.
    """
    theta = np.array(grid, dtype=np.float64)[:, None]
    y, n = series.values, series.n
    params = smoothing._grid(extrapolator)
    full = fit_linear_trend(series)
    t = np.arange(1.0, n + 1)
    runs = np.stack([y - trend_value(full, t), t], axis=1)[:, :, None]
    cross = np.zeros((3,) + params["alpha"].shape)  # e0*e0, e0*e1, e1*e1
    products = np.empty_like(cross)
    k = np.arange(1, H + 1)
    table = {}
    with np.errstate(all="ignore"):
        for ni, (e, level, trend, _) in enumerate(smoothing._recurrence(runs, **params), start=2):
            if e is not None:
                np.multiply(e[0], e, out=products[:2])
                np.multiply(e[1], e[1], out=products[2])
                cross += products
            if ni not in origins:
                continue
            prefix_fit = fit_linear_trend(series.with_values(series.values[:ni]))
            c1 = theta * full.intercept + (1.0 - theta) * prefix_fit.intercept
            c2 = theta * full.slope + (1.0 - theta) * prefix_fit.slope
            weights = np.hstack([theta * theta, theta * c2, theta * c2, c2 * c2])
            best = np.argmin(smoothing._sanitize(weights @ cross[[0, 1, 1, 2]]), axis=1, keepdims=True)
            line = theta * level[0][best] + c1 + c2 * level[1][best]
            if trend is not None:
                slope = theta * trend[0][best] + c2 * trend[1][best]
                line = line + np.cumsum(params["phi"][best] ** k, axis=1) * slope
            table[ni] = (1.0 - 1.0 / theta) * trend_value(prefix_fit, ni + k) + (1.0 / theta) * line
    return table


def assert_table_equals_whole_grid(series, origins, H, extrapolator):
    table = forecast_table(series, DEFAULT_THETA_GRID, origins, H, extrapolator)
    reference = whole_grid_forecast_table(series, DEFAULT_THETA_GRID, origins, H, extrapolator)
    assert table.keys() == reference.keys() == set(origins)
    for ni in origins:
        assert table[ni].tobytes() == reference[ni].tobytes(), (series.id, ni)


# pinned damped grids of 1,919 points keep a 7-point block cheap
@pytest.mark.parametrize(
    "extrapolator",
    [SES, ForecasterSpec("damped", alpha=0.3), ForecasterSpec("damped", beta=0.1)],
    ids=["ses", "damped-alpha", "damped-beta"],
)
def test_blocked_loss_table_equals_whole_grid(extrapolator, monkeypatch):
    # an odd block puts many block boundaries inside the grid and leaves a
    # ragged last block; the forecast table holds every cost's losses, and
    # checkpoint n the final forecasts
    monkeypatch.setattr(smoothing, "_BLOCK", 7)
    counts = {"Yearly": 2, "Quarterly": 1, "Monthly": 0, "Other": 1}
    for entry in synthetic_dataset(42, counts).entries:
        series, h = entry.series, entry.h
        union = sorted({series.n} | {
            ni for a in APPROACHES for ni in scored_origins(approach_config(a, series.n, h), series.n)
        })
        assert_table_equals_whole_grid(series, union, h, extrapolator)


@st.composite
def table_case(draw, lowest):
    """A random walk, a horizon and one kind of origin set, every origin at least ``lowest``:
    n alone; a set without n; one from ``lowest`` (2 for SES); or origins whose H runs past n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(lowest + 2, 40))
    H = draw(st.integers(1, 12))
    series = TimeSeries("rw", 100.0 + np.cumsum(rng.normal(draw(st.floats(-3.0, 3.0)), 2.0, n)))
    kind = draw(st.sampled_from(["n-alone", "without-n", "from-lowest", "past-n"]))
    if kind == "n-alone":
        return series, [n], H
    pool = {
        "without-n": range(lowest, n),
        "from-lowest": range(lowest, n + 1),
        "past-n": range(max(lowest, n - H + 1), n + 1),
    }[kind]
    origins = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=12))
    return series, sorted(origins | ({lowest} if kind == "from-lowest" else set())), H


@settings(deadline=None, max_examples=40)
@given(case=table_case(2))
def test_ses_table_equals_whole_grid_on_drawn_origins(case):
    # SES's grid is one block at the real _BLOCK
    assert_table_equals_whole_grid(*case, SES)


@settings(deadline=None, max_examples=20)
@given(
    case=table_case(3),
    extrapolator=st.sampled_from([ForecasterSpec("damped", alpha=0.3), ForecasterSpec("damped", beta=0.1)]),
)
def test_damped_table_equals_whole_grid_on_drawn_origins(case, extrapolator):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_BLOCK", 7)
        assert_table_equals_whole_grid(*case, extrapolator)


def test_table_builds_no_prefix_series(monkeypatch):
    # the prefix lines come from one array pass, not from a TimeSeries per origin
    entry = synthetic_dataset(42, {"Monthly": 1}).entries[0]
    series, h = entry.series, entry.h
    union = sorted({series.n} | {
        ni for a in APPROACHES for ni in scored_origins(approach_config(a, series.n, h), series.n)
    })
    assert len(union) == 37

    def refuse(*args, **kwargs):
        raise AssertionError("forecast_table built a TimeSeries")

    monkeypatch.setattr(TimeSeries, "__post_init__", refuse)
    assert forecast_table(series, DEFAULT_THETA_GRID, union, h).keys() == set(union)


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


def assert_final_forecasts_match(series, h, spec):
    """Every grid theta's row of the table at n is ``otm_forecast`` of that theta,
    up to rounding relative to the series, since a forecast near zero loses its
    relative precision to cancellation."""
    table = forecast_table(series, DEFAULT_THETA_GRID, [series.n], h, spec)
    assert table[series.n].shape == (len(DEFAULT_THETA_GRID), h)
    atol = 1e-12 * np.abs(series.values).max()
    for row, theta in zip(table[series.n], DEFAULT_THETA_GRID):
        reference = otm_forecast(series, theta, h, spec)
        np.testing.assert_allclose(row, reference, rtol=1e-12, atol=atol, err_msg=f"{series.id} {theta}")


@pytest.mark.parametrize("family", sorted(EXTRAPOLATORS))
def test_final_forecasts_match_otm_forecast_on_corpus(family):
    counts = {"Yearly": 2, "Quarterly": 2, "Monthly": 2, "Other": 1}
    for entry in synthetic_dataset(42, counts).entries:
        work = SeriesContext(entry.series, entry.h).adjusted[1]
        assert_final_forecasts_match(work, entry.h, EXTRAPOLATORS[family])


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 48),
    h=st.integers(1, 8),
    drift=st.floats(-3.0, 3.0),
    family=st.sampled_from(sorted(EXTRAPOLATORS)),
)
@example(seed=34, n=34, h=6, drift=-2.8993034154236703, family="damped")  # crosses zero at theta 3.5
def test_final_forecasts_match_otm_forecast_on_random_walks(seed, n, h, drift, family):
    rng = np.random.default_rng(seed)
    series = TimeSeries("rw", 100.0 + np.cumsum(rng.normal(drift, 2.0, n)))
    assert_final_forecasts_match(series, h, EXTRAPOLATORS[family])


def test_a_final_fit_with_no_finite_sse_fails_the_cell(make_rw, monkeypatch):
    # the selecting search's checkpoint n replaces otm_forecast's final fit,
    # so it must refuse, as that fit does, a theta line whose SSE at n is
    # non-finite at every grid point; its argmin would be grid point 0
    real = smoothing._recurrence

    def last_step_overflows(y, *args, **kwargs):
        for t, (e, *state) in enumerate(real(y, *args, **kwargs), start=2):
            yield (np.full_like(e, np.nan) if t == len(y) else e), *state

    series = make_rw(12, 40, drift=0.3)
    monkeypatch.setattr(smoothing, "_recurrence", last_step_overflows)
    origins = scored_origins(approach_config("a", series.n, 6), series.n)
    assert forecast_table(series, DEFAULT_THETA_GRID, origins, 6).keys() == set(origins)
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        forecast_table(series, DEFAULT_THETA_GRID, origins + [series.n], 6)
    with pytest.raises(ValueError, match="no finite in-sample SSE"):
        run_method(series, 6, MethodSpec.otm("a"))


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
    table = forecast_table(series, DEFAULT_THETA_GRID, union, h)
    selections = 0
    for k, other in enumerate(moved):
        moved_table = forecast_table(other, DEFAULT_THETA_GRID, union, h)
        for approach, origins in own.items():
            base = select_theta(series, DEFAULT_THETA_GRID,
                                loss_rows(series, DEFAULT_THETA_GRID, table, origins, cost), origins)
            chosen = select_theta(other, DEFAULT_THETA_GRID,
                                  loss_rows(other, DEFAULT_THETA_GRID, moved_table, origins, cost), origins)
            selections += 1
            if chosen != base:
                losses = dict(zip(DEFAULT_THETA_GRID, table_losses(series, table, origins, cost)))
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
        indices, work = SeriesContext(series, h).adjusted
        moved = []
        for c in SCALES:
            scaled = series.with_values(c * series.values)
            scaled_indices, scaled_work = SeriesContext(scaled, h).adjusted
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


def test_power_of_two_scale_scales_every_token_bit_for_bit():
    # scaling y by 2**k is exact, and so is every step of every token at it:
    # the seasonal test, theta selection and each smoothing family, which
    # the rtol tests above only bound; the damped extrapolator runs on the
    # two shortest series, where its 193,819-point search stays cheap. Near
    # the float limit (k = 1010) a cell may fail with ValueError instead, as
    # a non-finite line or forecast is refused, but never leaks a warning
    entries = sorted(synthetic_dataset(7, {"Yearly": 4, "Quarterly": 4, "Monthly": 4, "Other": 2}),
                     key=lambda entry: entry.series.n)
    specs = (MethodSpec.classic_theta(), *(MethodSpec.otm(a) for a in APPROACHES),
             MethodSpec.otm("a", cost="ae", name="otm-a-ae"),
             MethodSpec.otm("a", cost="sape", name="otm-a-sape"),
             *(MethodSpec.benchmark(family) for family in smoothing.FAMILIES))
    damped = MethodSpec.otm("d", extrapolator="damped", name="otm-d-damped")
    cells = failed = 0
    for i, entry in enumerate(entries):
        series, h = entry.series, entry.h
        tokens = (*specs, damped) if i < 2 else specs
        base = SeriesContext(series, h, tokens)
        wanted = {spec: run_method(series, h, spec, context=base) for spec in tokens}
        for k in (-7, 3, 40, 1010):
            moved = series.with_values(np.ldexp(series.values, k))
            context = SeriesContext(moved, h, tokens)
            for spec, want in wanted.items():
                cells += 1
                try:
                    got = run_method(moved, h, spec, context=context)
                except ValueError:
                    assert k == 1010, (series.id, spec.name, k)
                    failed += 1
                    continue
                assert (got.theta, got.seasonal) == (want.theta, want.seasonal), (series.id, spec.name, k)
                assert got.forecasts.tobytes() == np.ldexp(want.forecasts, k).tobytes(), (
                    series.id, spec.name, k)
    assert cells == 14 * 4 * 18 + 2 * 4
    assert 0 < failed < 14 * 18 + 2
