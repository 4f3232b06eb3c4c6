"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-8 are self-contained property checks. Criteria 9-12 reproduce
published-scale accuracy numbers and need the M3 corpus in the documented
dataset format; set the OPTITHETA_M3 environment variable to the corpus
file to enable them (see README), otherwise they are skipped.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import os
import time

import numpy as np
import pytest

from optitheta import (
    ExperimentConfig,
    GroeConfig,
    MethodSpec,
    TimeSeries,
    approach_config,
    combination_weight,
    fit_linear_trend,
    groe_loss,
    load_dataset,
    mase,
    p_max,
    recompose,
    run_experiment,
    run_method,
    smape,
    synthetic_dataset,
    theta_line,
)
from optitheta.groe import otm_candidate
from optitheta.metrics import UndefinedMetricError
from optitheta.runner import write_outputs

M3_ENV = "OPTITHETA_M3"

m3_required = pytest.mark.skipif(
    not os.environ.get(M3_ENV),
    reason=f"set {M3_ENV} to the M3 corpus file (dataset format, see README)",
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f": {detail}"
    print(line)


def _random_series(rng, n, sid="s", period=1):
    level = rng.uniform(20.0, 500.0)
    values = level + np.cumsum(rng.normal(rng.normal(0, 0.5), rng.uniform(0.5, 4.0), n))
    return TimeSeries(sid, values, period)


@pytest.fixture(scope="module")
def m3_dataset():
    return load_dataset(os.environ[M3_ENV])


def _all_row(result, method):
    for row in result.table:
        if row.method == method and row.group == "All":
            return row
    raise AssertionError(f"no All row for {method}")


# ---------------------------------------------------------------------------
# property-based criteria (always runnable)
# ---------------------------------------------------------------------------


def test_c01_recomposition_identity():
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 201))
        series = _random_series(rng, n)
        fit = fit_linear_trend(series)
        scale = np.max(np.abs(series.values))
        for _ in range(50):
            theta1 = rng.uniform(-2.0, 1.0)
            theta2 = rng.uniform(1.0, 6.0)
            omega = combination_weight(theta1, theta2)
            rebuilt = recompose(
                theta_line(series, fit, theta1), theta_line(series, fit, theta2), omega
            )
            worst = max(worst, np.max(np.abs(rebuilt - series.values)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report("criterion 1 (recomposition identity)",
            ok, f"worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_c02_weight_sanity():
    rng = np.random.default_rng(2)
    exact = combination_weight(0.0, 2.0) == 0.5 and combination_weight(1.0, 1.0) == 1.0
    in_unit = True
    for _ in range(200):
        omega = combination_weight(rng.uniform(-10.0, 1.0), rng.uniform(1.0, 10.0))
        in_unit = in_unit and 0.0 <= omega <= 1.0
    _report("criterion 2 (weight sanity)", exact and in_unit)
    assert exact
    assert in_unit


def test_c03_ses_reduction():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        series = _random_series(rng, int(rng.integers(15, 80)), sid=f"s{i}")
        otm = run_method(series, 6, MethodSpec.otm("a", grid=(1.0,)))
        ses = run_method(series, 6, MethodSpec.benchmark("ses"))
        worst = max(worst, float(np.max(np.abs(otm.forecasts - ses.forecasts))))
    _report("criterion 3 (theta=1 reduces to SES)", worst <= 1e-12, f"worst |diff| {worst:.2e}")
    assert worst <= 1e-12


def test_c04_classic_equivalence():
    rng = np.random.default_rng(4)
    identical = True
    for i in range(100):
        n = int(rng.integers(15, 90))
        period = int(rng.choice([1, 4, 12]))
        series = _random_series(rng, n, sid=f"s{i}", period=period)
        if period > 1:
            pattern = 1.0 + 0.25 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / period)
            series = series.with_values(np.abs(series.values) * pattern + 1.0)
        classic = run_method(series, 6, MethodSpec.classic_theta())
        pinned = run_method(series, 6, MethodSpec.otm("a", grid=(2.0,)))
        identical = identical and np.array_equal(classic.forecasts, pinned.forecasts)
    _report("criterion 4 (classic theta == otm with grid {2})", identical)
    assert identical


def test_c05_groe_special_cases():
    rng = np.random.default_rng(5)
    candidate = otm_candidate(2.0)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(20, 45))
        series = _random_series(rng, n, sid=f"s{i}")
        y = series.values
        for cost_name, g in (("se", lambda a, b: (a - b) ** 2),):
            # fixed origin: approach (a) vs a directly coded final-window loss
            h = 6
            config = approach_config("a", n, h)
            fx = candidate(y[: n - h], h)
            oracle = float(np.sum(g(y[n - h :], fx)))
            loss = groe_loss(series, candidate, config, cost_name)
            worst = max(worst, abs(loss - oracle) / max(oracle, 1e-12))

            # rolling origin: m=1, H >= n - n1 vs a directly coded loop
            n1 = n - 8
            config = GroeConfig(p=p_max(n, n1, 1), m=1, H=n - n1, n1=n1)
            oracle = 0.0
            for ni in range(n1, n):
                fx = candidate(y[:ni], n - ni)
                oracle += float(np.sum(g(y[ni:], fx)))
            loss = groe_loss(series, candidate, config, cost_name)
            worst = max(worst, abs(loss - oracle) / max(oracle, 1e-12))

            # one-step in-sample loss: n1=2, m=H=1 vs a direct sweep
            config = GroeConfig(p=p_max(n, 2, 1), m=1, H=1, n1=2)
            oracle = 0.0
            for t in range(2, n):
                fx = candidate(y[:t], 1)
                oracle += float(g(y[t], fx[0]))
            loss = groe_loss(series, candidate, config, cost_name)
            worst = max(worst, abs(loss - oracle) / max(oracle, 1e-12))
    _report("criterion 5 (GROE special cases)", worst <= 1e-10, f"worst relative gap {worst:.2e}")
    assert worst <= 1e-10


def test_c06_p_max_oracle():
    checked = 0
    for n in range(3, 61):
        for n1 in range(2, n):
            for m in range(1, n + 1):
                count, origin = 0, n1
                while origin <= n:
                    count += 1
                    origin += m
                assert p_max(n, n1, m) == count
                checked += 1
    _report("criterion 6 (p_max enumeration oracle)", True, f"{checked} combinations")


def test_c07_metric_oracles():
    ok = True
    ok &= smape([100.0], [50.0]) == pytest.approx(200.0 * 50.0 / 150.0, abs=1e-12)
    ok &= smape([1.0, 1.0], [3.0, 1.0]) == pytest.approx(50.0, abs=1e-12)
    ok &= smape([2.0, 3.0], [2.0, 3.0]) == 0.0
    ok &= mase([1.0, 2.0, 3.0], [4.0], [3.0]) == pytest.approx(1.0, abs=1e-12)
    ok &= mase([0.0, 2.0, 0.0, 2.0], [2.0, 2.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    base = mase([3.0, 5.0, 4.0], [6.0], [5.5])
    for c in (1e-3, 17.0, 1e4):
        scaled = mase([3.0 * c, 5.0 * c, 4.0 * c], [6.0 * c], [5.5 * c])
        ok &= scaled == pytest.approx(base, rel=1e-12)
    with pytest.raises(UndefinedMetricError):
        mase([2.0, 2.0], [1.0], [1.0])
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a = rng.normal(scale=rng.uniform(0.1, 1e5), size=rng.integers(1, 8))
        f = rng.normal(scale=rng.uniform(0.1, 1e5), size=a.size)
        value = smape(a, f)
        ok &= 0.0 <= value <= 200.0
    _report("criterion 7 (metric oracles)", bool(ok))
    assert ok


def test_c08_worker_determinism(tmp_path):
    corpus = synthetic_dataset(
        2024, {"Yearly": 60, "Quarterly": 60, "Monthly": 50, "Other": 30}
    )
    assert len(corpus) == 200
    methods = (MethodSpec.classic_theta(), MethodSpec.otm("a"), MethodSpec.benchmark("naive"))
    outputs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        result = run_experiment(corpus, ExperimentConfig(methods=methods, workers=workers))
        outputs[workers] = write_outputs(result, out_dir)
    same = True
    for key in ("scores", "forecasts", "ranks"):
        same &= outputs[1][key].read_text() == outputs[8][key].read_text()

    def strip_timing(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    same &= strip_timing(outputs[1]["aggregate"]) == strip_timing(outputs[8]["aggregate"])
    _report("criterion 8 (1 vs 8 workers byte-identical)", bool(same))
    assert same


# ---------------------------------------------------------------------------
# dataset-reproduction criteria (need the M3 corpus)
# ---------------------------------------------------------------------------


@m3_required
def test_c09_classic_theta_published_accuracy(m3_dataset):
    result = run_experiment(
        m3_dataset, ExperimentConfig(methods=(MethodSpec.classic_theta(),), workers=8)
    )
    row = _all_row(result, "theta")
    ok = abs(row.smape_mean - 13.09) <= 0.30 and abs(row.mase_mean - 2.19) <= 0.05
    _report(
        "criterion 9 (classic theta on M3)",
        ok,
        f"sMAPE {row.smape_mean:.2f} (13.09±0.30), MASE {row.mase_mean:.2f} (2.19±0.05)",
    )
    assert abs(row.smape_mean - 13.09) <= 0.30
    assert abs(row.mase_mean - 2.19) <= 0.05


@m3_required
def test_c10_otm_d_published_accuracy(m3_dataset):
    result = run_experiment(
        m3_dataset,
        ExperimentConfig(methods=(MethodSpec.otm("d", cost="se"),), workers=8),
    )
    row = _all_row(result, "otm-d")
    ok = abs(row.smape_mean - 12.85) <= 0.30 and abs(row.mase_mean - 2.09) <= 0.05
    _report(
        "criterion 10 (OTM approach d, SE cost, on M3)",
        ok,
        f"sMAPE {row.smape_mean:.2f} (12.85±0.30), MASE {row.mase_mean:.2f} (2.09±0.05)",
    )
    assert abs(row.smape_mean - 12.85) <= 0.30
    assert abs(row.mase_mean - 2.09) <= 0.05


@m3_required
def test_c11_ordering_and_rank_claims(m3_dataset):
    approaches = ("a", "b", "c", "d", "e", "f", "g", "h")
    methods = (MethodSpec.classic_theta(),) + tuple(
        MethodSpec.otm(ap, cost="sape") for ap in approaches
    )
    result = run_experiment(m3_dataset, ExperimentConfig(methods=methods, workers=8))
    theta_smape = _all_row(result, "theta").smape_mean
    beats = {ap: _all_row(result, f"otm-{ap}").smape_mean < theta_smape for ap in "abcd"}
    ranks = result.rank_smape
    assert ranks is not None, "rank matrix incomplete on the corpus"
    otm_ranks = {ap: ranks[f"otm-{ap}"] for ap in approaches}
    h_is_worst_otm = otm_ranks["h"] == max(otm_ranks.values())
    h_beats_theta = otm_ranks["h"] < ranks["theta"]
    ok = all(beats.values()) and h_is_worst_otm and h_beats_theta
    _report(
        "criterion 11 (ordering and rank claims on M3)",
        ok,
        f"(a)-(d) beat theta: {beats}; rank(h)={otm_ranks['h']:.2f} "
        f"worst OTM: {h_is_worst_otm}; rank(theta)={ranks['theta']:.2f}",
    )
    assert all(beats.values())
    assert h_is_worst_otm
    assert h_beats_theta


@m3_required
def test_c12_runtime_envelope(m3_dataset):
    methods = tuple(MethodSpec.otm(ap, cost="se") for ap in "abcdefgh")
    start = time.perf_counter()
    run_experiment(m3_dataset, ExperimentConfig(methods=methods, workers=8))
    elapsed = time.perf_counter() - start
    ok = elapsed <= 3600.0
    _report("criterion 12 (runtime envelope)", ok, f"{elapsed / 60.0:.1f} min (limit 60)")
    assert elapsed <= 3600.0
