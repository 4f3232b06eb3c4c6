import numpy as np
import pytest

from optitheta import (
    APPROACHES,
    Dataset,
    DatasetEntry,
    ExperimentConfig,
    ForecastResult,
    MethodSpec,
    TimeSeries,
    approach_config,
    estimate_theta,
    run_experiment,
    run_method,
    synthetic_dataset,
)
from optitheta import groe, pipeline, smoothing
from optitheta import theta as theta_module
from optitheta.groe import (
    COST_FUNCTIONS, DEFAULT_THETA_GRID, forecast_table, forecast_tables, loss_rows, scored_origins,
    select_theta,
)
from optitheta.pipeline import SeriesContext
from optitheta.seasonal import SeasonalIndices, reseasonalize
from optitheta.series import fit_linear_trend, trend_value
from optitheta.smoothing import ForecasterSpec, fit as fit_forecaster, forecast as smooth_forecast
from optitheta.theta import otm_forecast, theta_line


# ---------------------------------------------------------------------------
# optimised theta pipeline
# ---------------------------------------------------------------------------


def test_constant_series_selects_theta_one():
    series = TimeSeries("c", np.full(30, 7.0))
    result = run_method(series, 6, MethodSpec.otm("a"))
    assert result.theta == 1.0
    assert not result.seasonal
    assert np.allclose(result.forecasts, 7.0)


def test_exact_line_selects_largest_theta():
    n, h = 30, 5
    series = TimeSeries("line", np.arange(1.0, n + 1.0))
    result = run_method(series, h, MethodSpec.otm("a"))
    # on a perfect line a larger theta moves the forecasts toward the trend
    assert result.theta == 5.0
    k = np.arange(1, h + 1)
    assert np.allclose(result.forecasts, n + 0.8 * k, atol=1e-9)


def test_seasonal_composition_restores_pattern():
    # period-2 patterns are recovered exactly by the decomposition, so the
    # seasonal run must equal the adjusted run times the continued pattern
    pattern = np.array([0.8, 1.2])
    n, h = 30, 4
    t = np.arange(1, n + 1)
    trend = 50.0 + 2.0 * t
    seasonal_series = TimeSeries("s", trend * pattern[(t - 1) % 2], period=2)
    plain_series = TimeSeries("d", trend, period=1)
    spec = MethodSpec.otm("a")
    seasonal_run = run_method(seasonal_series, h, spec)
    plain_run = run_method(plain_series, h, spec)
    assert seasonal_run.seasonal and not plain_run.seasonal
    continued = reseasonalize(plain_run.forecasts, SeasonalIndices(pattern), start_t=n + 1)
    assert np.max(np.abs(seasonal_run.forecasts - continued)) <= 1e-9 * np.max(continued)


def test_otm_grid_one_equals_ses_benchmark(make_rw):
    for seed in range(10):
        series = make_rw(seed, 40)
        otm = run_method(series, 6, MethodSpec.otm("a", grid=(1.0,)))
        ses = run_method(series, 6, MethodSpec.benchmark("ses"))
        assert np.max(np.abs(otm.forecasts - ses.forecasts)) <= 1e-12


def test_classic_equals_otm_with_fixed_grid(make_rw, make_seasonal):
    for seed in range(10):
        series = make_rw(seed, 35)
        if seed % 2:
            series = make_seasonal(seed, 48, [0.8, 1.2, 0.9, 1.1], noise=0.05)
        classic = run_method(series, 6, MethodSpec.classic_theta())
        pinned = run_method(series, 6, MethodSpec.otm("d", grid=(2.0,), name="theta"))
        assert np.array_equal(classic.forecasts, pinned.forecasts)
        assert classic.theta == pinned.theta == 2.0


def test_classic_matches_independent_composition(make_rw):
    # 0.5 * extrapolated trend + 0.5 * SES of the doubled-curvature line
    series = make_rw(31, 28)
    h = 4
    fit = fit_linear_trend(series)
    line = theta_line(series, fit, 2.0)
    ses_fx = smooth_forecast(fit_forecaster(ForecasterSpec("ses"), series.with_values(line.values)), h)
    k = np.arange(1, h + 1)
    expected = 0.5 * trend_value(fit, series.n + k) + 0.5 * ses_fx
    classic = run_method(series, h, MethodSpec.classic_theta())
    assert np.allclose(classic.forecasts, expected, atol=1e-12)


def test_too_short_for_any_config_falls_back_to_classic():
    series = TimeSeries("tiny", [9.0, 11.0, 10.0, 12.0])
    result = run_method(series, 6, MethodSpec.otm("a"))  # n <= h: no training prefix
    assert result.theta == 2.0
    assert result.note is not None and "fallback" in result.note
    classic = run_method(series, 6, MethodSpec.classic_theta())
    assert np.array_equal(result.forecasts, classic.forecasts)


def test_run_otm_rejects_unusable_series():
    with pytest.raises(ValueError, match="n >= 3"):
        run_method(TimeSeries("s", [1.0, 2.0]), 4, MethodSpec.otm("a"))


def test_run_otm_is_deterministic(make_seasonal):
    series = make_seasonal(2, 48, [0.8, 1.2, 0.9, 1.1], noise=0.1)
    spec = MethodSpec.otm("c", cost="sape")
    first = run_method(series, 8, spec)
    second = run_method(series, 8, spec)
    assert np.array_equal(first.forecasts, second.forecasts)
    assert first.theta == second.theta


def test_forecast_length_matches_horizon(make_rw):
    result = run_method(make_rw(3, 30), 7, MethodSpec.otm("b"))
    assert result.forecasts.shape == (7,)


# ---------------------------------------------------------------------------
# per-series context shared by the method tokens
# ---------------------------------------------------------------------------

SHARED_EXTRAPOLATORS = {
    "ses": ForecasterSpec("ses"),
    # pinned weights leave the 19-point phi grid
    "damped": ForecasterSpec("damped", alpha=0.3, beta=0.1),
}


def synthetic_cases():
    """(series, h) pairs, seasonal and not, long enough for every schedule."""
    entries = synthetic_dataset(42, {"Yearly": 2, "Quarterly": 2, "Monthly": 2, "Other": 1}).entries
    return [(entry.series, entry.h) for entry in entries]


# too short for any schedule, so every otm token falls back to theta=2
SHORT_CASES = [
    (TimeSeries("n-eq-h", [9.0, 11.0, 10.0, 12.0, 13.0, 12.5]), 6),
    (TimeSeries("four", [3.0, 4.0, 3.5, 5.0]), 2),
]


def shared_specs():
    specs = [MethodSpec.classic_theta()]
    for cost in COST_FUNCTIONS:
        for label, extrapolator in SHARED_EXTRAPOLATORS.items():
            specs += [MethodSpec.otm(a, cost=cost, extrapolator=extrapolator,
                                     name=f"otm-{a}-{cost}-{label}") for a in APPROACHES]
    # a fixed token, and a selecting token with a table of its own
    return specs + [MethodSpec.otm("a", grid=(3.0,), name="otm-a-fixed3"),
                    MethodSpec.otm("d", grid=(1.0, 2.0, 3.0), name="otm-d-grid3")]


def selecting(specs):
    return [spec for spec in specs if spec.family is None and len(spec.grid) > 1]


def test_shared_context_equals_fresh_context_per_token():
    specs = shared_specs()
    seasonal_seen = set()
    fallbacks = 0
    for series, h in synthetic_cases() + SHORT_CASES:
        context = SeriesContext(series, h, specs)
        for spec in specs:
            shared = run_method(series, h, spec, context=context)
            alone = run_method(series, h, spec)
            assert (shared.theta, shared.note, shared.seasonal) == (
                alone.theta, alone.note, alone.seasonal), (series.id, spec.name)
            assert shared.forecasts.tobytes() == alone.forecasts.tobytes(), (series.id, spec.name)
            seasonal_seen.add(shared.seasonal)
            fallbacks += shared.note is not None
    assert seasonal_seen == {False, True}
    assert fallbacks == len(SHORT_CASES) * len(selecting(specs))


def test_shared_context_plans_each_selecting_token_once(monkeypatch):
    # a token's origins depend on n and h alone, so its schedule is worked
    # out once per series, not again for the table and for the selection
    calls = []

    def counting(approach, n, h):
        calls.append(approach)
        return approach_config(approach, n, h)

    monkeypatch.setattr(pipeline, "approach_config", counting)
    specs = shared_specs()
    for series, h in synthetic_cases() + SHORT_CASES:
        calls.clear()
        context = SeriesContext(series, h, specs)
        for spec in specs:
            run_method(series, h, spec, context=context)
        assert sorted(calls) == sorted(spec.approach for spec in selecting(specs)), series.id


def test_estimate_theta_equals_selection_over_a_union_table():
    for series, h in synthetic_cases():
        work = SeriesContext(series, h).adjusted[1]
        configs = {a: approach_config(a, series.n, h) for a in APPROACHES}
        union = sorted({ni for c in configs.values() for ni in scored_origins(c, series.n)})
        for extrapolator in SHARED_EXTRAPOLATORS.values():
            table = forecast_table(work, DEFAULT_THETA_GRID, union, h, extrapolator)
            for cost in COST_FUNCTIONS:
                for approach, config in configs.items():
                    own = scored_origins(config, series.n)
                    assert len(own) < len(union)
                    rows = loss_rows(work, DEFAULT_THETA_GRID, table, own, cost)
                    assert select_theta(work, DEFAULT_THETA_GRID, rows, own) == estimate_theta(
                        work, config=config, cost=cost, extrapolator=extrapolator
                    ), (series.id, approach, cost, extrapolator)


def test_selecting_tokens_forecast_the_chosen_theta():
    # a selecting token's forecasts come from its search's checkpoint n; they
    # are the final fit of the chosen theta, up to rounding
    specs = shared_specs()
    for series, h in synthetic_cases():
        context = SeriesContext(series, h, specs)
        indices, work = context.adjusted
        for spec in specs[1:]:
            result = run_method(series, h, spec, context=context)
            assert result.note is None
            expected = otm_forecast(work, result.theta, h, spec.extrapolator)
            if indices is not None:
                expected = reseasonalize(expected, indices, start_t=series.n + 1)
            np.testing.assert_allclose(result.forecasts, expected, rtol=1e-12, atol=0.0,
                                       err_msg=f"{series.id} {spec.name}")


def test_tokens_with_different_costs_share_one_search(monkeypatch):
    # the search does not depend on the cost, so one table serves every cost,
    # and each token still selects as estimate_theta does with its own cost
    tables = []

    def counting(members, *args):
        tables.extend(series.id for series, _, _ in members)
        return forecast_tables(members, *args)

    monkeypatch.setattr(pipeline, "forecast_tables", counting)
    specs = [MethodSpec.otm("d", cost=cost, name=f"otm-d-{cost}") for cost in COST_FUNCTIONS]
    differ = 0
    for series, h in synthetic_cases():
        context = SeriesContext(series, h, specs)
        work = context.adjusted[1]
        config = approach_config("d", series.n, h)
        thetas = set()
        for spec in specs:
            result = run_method(series, h, spec, context=context)
            assert result.theta == estimate_theta(work, config=config, cost=spec.cost), spec.name
            thetas.add(result.theta)
        assert tables.count(series.id) == 1
        differ += len(thetas) > 1
    assert differ > 0


def test_context_rejects_a_token_it_was_not_built_for(make_rw):
    series = make_rw(4, 30)
    context = SeriesContext(series, 6, (MethodSpec.otm("a"),))
    with pytest.raises(ValueError, match="not built for"):
        run_method(series, 6, MethodSpec.otm("b"), context=context)
    with pytest.raises(ValueError, match="not built for"):
        run_method(series, 5, MethodSpec.otm("a"), context=context)
    with pytest.raises(ValueError, match="not built for"):
        run_method(series, 6, MethodSpec.benchmark("naive2"), context=context)


def _selecting_corpus():
    entries = synthetic_dataset(5, {"Yearly": 2, "Quarterly": 1, "Monthly": 1}).entries
    short = DatasetEntry(TimeSeries("short", [4.0, 5.0, 4.5, 6.0, 5.5, 6.5]), np.ones(6), "Other")
    return Dataset(entries=entries + (short,))


def test_failed_loss_table_fails_only_the_cells_that_select(monkeypatch, tmp_path):
    dataset = _selecting_corpus()
    target = dataset.entries[1].series.id
    original = groe._prepare

    def failing(series, *args):
        if series.id == target:
            raise RuntimeError("table failed")
        return original(series, *args)

    monkeypatch.setattr(groe, "_prepare", failing)
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.otm("d"),
               MethodSpec.benchmark("naive"), MethodSpec.benchmark("ses"))
    outputs = []
    for workers in (1, 2):
        out_dir = tmp_path / f"w{workers}"
        result = run_experiment(dataset, ExperimentConfig(methods, workers=workers, out_dir=out_dir))
        failed = {(s.series_id, s.method) for s in result.scores if s.error is not None}
        assert failed == {(target, "otm-a"), (target, "otm-d")}
        assert all("table failed" in s.error for s in result.scores if s.error is not None)
        outputs.append([(out_dir / name).read_bytes() for name in ("scores.csv", "forecasts.csv")])
    assert outputs[0] == outputs[1]


def test_shared_work_runs_once_per_series(monkeypatch):
    dataset = synthetic_dataset(8, {"Yearly": 2, "Quarterly": 2, "Monthly": 2, "Other": 1})
    calls = {"seasonality_applies": [], "forecast_tables": [], "otm_forecast": []}
    for name, log in calls.items():
        original = getattr(pipeline, name)

        def counting(first, *args, _original=original, _log=log, **kwargs):
            # forecast_tables takes a list of (series, origins, H) members
            _log.extend([member[0].id for member in first] if isinstance(first, list) else [first.id])
            return _original(first, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, counting)
    methods = (MethodSpec.classic_theta(),) + tuple(MethodSpec.otm(a) for a in APPROACHES)
    result = run_experiment(dataset, ExperimentConfig(methods, workers=1))
    assert all(s.error is None and s.theta is not None for s in result.scores)
    ids = [entry.series.id for entry in dataset.entries]
    assert sorted(calls["seasonality_applies"]) == sorted(ids)
    assert sorted(calls["forecast_tables"]) == sorted(ids)
    # the selecting tokens take their forecasts from the table, so only the
    # fixed-theta cells, classic Theta here, fit a theta line directly
    assert sorted(calls["otm_forecast"]) == sorted(ids)


def test_a_fixed_theta_token_fits_the_adjusted_line_once_per_series(monkeypatch):
    # the theta line's fit input and the recombination share one OLS line
    fitted_lines = []
    for module in (pipeline, theta_module):
        original = module.fit_linear_trend

        def counting(series, _original=original):
            fitted_lines.append(series.id)
            return _original(series)

        monkeypatch.setattr(module, "fit_linear_trend", counting)
    dataset = synthetic_dataset(4, {"Yearly": 2, "Quarterly": 2, "Monthly": 1, "Other": 1})
    result = run_experiment(dataset, ExperimentConfig((MethodSpec.classic_theta(),), workers=1))
    assert all(s.error is None for s in result.scores)
    assert sorted(fitted_lines) == sorted(entry.series.id for entry in dataset.entries)


def test_a_context_plans_exactly_what_its_tokens_take(monkeypatch):
    # a planned batch that no token takes is wasted in every batch that scans for it, and
    # a table planned without n or one of its tokens' origins cannot serve them
    taken = []
    take = SeriesContext._take

    def recording(context, key):
        taken.append((context, key))
        return take(context, key)

    monkeypatch.setattr(SeriesContext, "_take", recording)
    cases = [(entry.series, entry.h) for entry in synthetic_dataset(
        3, {"Yearly": 5, "Quarterly": 5, "Monthly": 5, "Other": 5}).entries]
    cases += [(TimeSeries("n2", [3.0, 4.0]), 6), (TimeSeries("q5", [5.0, 7.0, 6.0, 8.0, 9.0], 4), 8),
              (TimeSeries("flat", np.full(48, 3.5), 12), 18)]
    specs = [MethodSpec.classic_theta(), *(MethodSpec.otm(a) for a in APPROACHES),
             *(MethodSpec.benchmark(family) for family in smoothing.FAMILIES),
             MethodSpec.otm("a", grid=(1.0,))]
    assert len(specs) == 17
    task, unplanned = [], 0
    for series, h in cases:
        context = SeriesContext(series, h, specs, task)
        tables = {}
        for spec in selecting(specs):
            try:
                origins = scored_origins(approach_config(spec.approach, series.n, h), series.n)
            except ValueError:
                continue
            tables.setdefault((spec.grid, spec.extrapolator), {series.n}).update(origins)
        for spec in specs:
            try:
                context.run(spec)
            except ValueError:
                pass  # a cell that fails still takes what it asks for first
        mine = {key for owner, key in taken if owner is context}
        planned = context._planned
        assert set(planned) <= mine, series.id
        assert {key: planned[key] for key in planned if isinstance(key[0], tuple)} == tables, series.id
        for first, spec in mine - set(planned):
            assert first is None and spec.family in smoothing.SEASONAL, (series.id, spec)
            unplanned += 1
    assert unplanned > 0  # the seasonal fits of the seasonal series


def test_benchmark_tokens_share_the_seasonal_test(monkeypatch, make_seasonal):
    series = make_seasonal(3, 48, [0.7, 1.3, 0.9, 1.1], noise=0.02)
    dataset = Dataset(entries=(DatasetEntry(series, np.full(4, 250.0), "Quarterly"),))
    tokens = ("naive2", "holt_winters", "seasonal_damped")
    methods = (MethodSpec.classic_theta(),) + tuple(MethodSpec.benchmark(f) for f in tokens)
    tests = []
    for module in (pipeline, smoothing):
        original = module.seasonality_applies

        def counting(series, _original=original):
            tests.append(series.id)
            return _original(series)

        monkeypatch.setattr(module, "seasonality_applies", counting)
    result = run_experiment(dataset, ExperimentConfig(methods, workers=1))
    assert tests == [series.id]
    for family, shared in zip(tokens, result.forecasts[1:]):
        assert shared.seasonal
        alone = smooth_forecast(fit_forecaster(ForecasterSpec(family), series), 4)
        assert shared.forecasts.tobytes() == alone.tobytes(), family


def test_sibling_fallbacks_share_one_fit_per_family(monkeypatch):
    # without a season, naive2, holt-winters and seasonal-damped fall back to
    # naive, holt and damped, which their own tokens fit on the same grid: one
    # search per family and series, with the forecasts of a fit per token
    fits = []
    original = smoothing.fit_all

    def counting(spec, series, *args, **kwargs):
        fits.append(spec.family)
        return original(spec, series, *args, **kwargs)

    monkeypatch.setattr(smoothing, "fit_all", counting)
    names = ("naive", "naive2", "holt", "holt_winters", "damped", "seasonal_damped")
    specs = [MethodSpec.benchmark(name) for name in names]
    entries = synthetic_dataset(3, {"Yearly": 2, "Quarterly": 1, "Monthly": 0, "Other": 0}).entries
    seasonal = set()
    for entry in entries:
        context = SeriesContext(entry.series, entry.h, specs)
        fits.clear()
        shared = [run_method(entry.series, entry.h, spec, context=context) for spec in specs]
        is_seasonal = context.adjusted[0] is not None
        seasonal.add(is_seasonal)
        expected = names if is_seasonal else ("naive", "holt", "damped")
        assert sorted(fits) == sorted(expected), entry.series.id
        for spec, result in zip(specs, shared):
            alone = run_method(entry.series, entry.h, spec)
            assert result.forecasts.tobytes() == alone.forecasts.tobytes(), (entry.series.id, spec.name)
    assert seasonal == {False, True}


def test_tokens_score_each_origin_once_per_cost(monkeypatch):
    # the selecting tokens of one table and cost share its per-origin loss
    # rows; each sums its own origins and selects as it would alone
    calls = []
    original = pipeline.loss_rows

    def counting(series, grid, table, origins, cost):
        calls.append(cost)
        return original(series, grid, table, origins, cost)

    monkeypatch.setattr(pipeline, "loss_rows", counting)
    specs = [MethodSpec.otm(a, cost=cost, name=f"otm-{a}-{cost}") for a in APPROACHES
             for cost in ("se", "sape")]
    for series, h in synthetic_cases():
        context = SeriesContext(series, h, specs)
        calls.clear()
        shared = [run_method(series, h, spec, context=context).theta for spec in specs]
        assert sorted(calls) == ["sape", "se"], series.id
        assert shared == [run_method(series, h, spec).theta for spec in specs], series.id


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def test_naive_repeats_last_value(make_rw):
    series = make_rw(5, 20)
    result = run_method(series, 3, MethodSpec.benchmark("naive"))
    assert np.allclose(result.forecasts, series.values[-1])
    assert result.theta is None


def test_naive2_equals_naive_when_not_seasonal(make_rw):
    series = make_rw(6, 20)
    naive = run_method(series, 4, MethodSpec.benchmark("naive"))
    naive2 = run_method(series, 4, MethodSpec.benchmark("naive2"))
    assert np.array_equal(naive.forecasts, naive2.forecasts)
    assert not naive2.seasonal


def test_holt_winters_dispatch(make_seasonal, make_rw):
    seasonal_series = make_seasonal(7, 48, [0.7, 1.3, 0.9, 1.1])
    hw = run_method(seasonal_series, 4, MethodSpec.benchmark("holt_winters"))
    holt = run_method(seasonal_series, 4, MethodSpec.benchmark("holt"))
    assert hw.seasonal and not holt.seasonal
    assert not np.allclose(hw.forecasts, holt.forecasts)

    flat = make_rw(8, 30)
    hw_flat = run_method(flat, 4, MethodSpec.benchmark("holt_winters"))
    holt_flat = run_method(flat, 4, MethodSpec.benchmark("holt"))
    assert not hw_flat.seasonal
    assert np.array_equal(hw_flat.forecasts, holt_flat.forecasts)


def test_run_method_dispatch(make_rw):
    series = make_rw(9, 25)
    assert run_method(series, 3, MethodSpec.benchmark("naive")).method == "naive"
    assert run_method(series, 3, MethodSpec.classic_theta()).theta == 2.0
    assert run_method(series, 3, MethodSpec.otm("a")).method == "otm-a"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forecast_result_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite forecast"):
        ForecastResult("s", "ses", np.array([1.0, bad, 3.0]), theta=None, seasonal=False)


def test_method_spec_validation():
    with pytest.raises(ValueError, match="family"):
        MethodSpec(name="x", family="arima")
    with pytest.raises(ValueError, match="extrapolator"):
        MethodSpec.otm("a", extrapolator="holt_winters")
    with pytest.raises(ValueError, match="approach"):
        MethodSpec.otm("z")
    with pytest.raises(ValueError, match="cost"):
        MethodSpec.otm("a", cost="mse")
    for grid in ((0.5, 2), (np.nan,), (1, np.nan), (1, np.inf)):
        with pytest.raises(ValueError, match="finite and >= 1"):
            MethodSpec.otm("a", grid=grid)
    with pytest.raises(ValueError, match="ascending"):
        MethodSpec.otm("a", grid=(3, 2))
    assert MethodSpec.otm("a", grid=[1, 2]).grid == (1.0, 2.0)
