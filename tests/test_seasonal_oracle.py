"""A second, independent oracle for the seasonal path of the otm pipeline.

The paper's seasonal steps are written here again in plain Python (lists and
``math``): the lag-m ACF test with its 90% band, the classical multiplicative
decomposition, deseasonalisation, the closed-form pinned-alpha OTM of
``tests/test_theta.py`` on the adjusted values, and reseasonalisation. Package
code only builds the inputs and runs ``run_method``.
"""

import math

import numpy as np
import pytest

from optitheta import ForecasterSpec, MethodSpec, TimeSeries, run_method
from test_theta import ses_with_drift_forecasts

HORIZONS = {4: 8, 12: 18}


def autocorrelations(values, nlags):
    """r_1..r_nlags about the mean; zeros for a constant series."""
    n = len(values)
    mean = sum(values) / n
    d = [y - mean for y in values]
    denom = sum(x * x for x in d)
    if denom == 0.0:
        return [0.0] * nlags
    return [sum(d[i] * d[i + k] for i in range(n - k)) / denom for k in range(1, nlags + 1)]


def seasonal(values, m):
    """The lag-m ACF test, on positive series of at least three full cycles."""
    n = len(values)
    if m == 1 or n < 3 * m or min(values) <= 0.0:
        return False
    r = autocorrelations(values, m)
    band = 1.645 * math.sqrt((1.0 + 2.0 * sum(x * x for x in r[:-1])) / n)
    return abs(r[-1]) > band


def seasonal_factors(values, m):
    """Classical multiplicative decomposition: ratios to the centred moving
    average (2xm for even m), averaged per season and normalised to mean 1."""
    weights = [0.5, *[1.0] * (m - 1), 0.5] if m % 2 == 0 else [1.0] * m
    weights = [w / m for w in weights]
    offset = m // 2  # the 0-based time of the first centred average
    ratios = [[] for _ in range(m)]
    for start in range(len(values) - len(weights) + 1):
        t = start + offset
        trend = sum(w * y for w, y in zip(weights, values[start:]))
        ratios[t % m].append(values[t] / trend)
    means = [sum(r) / len(r) for r in ratios]
    mean = sum(means) / m
    return [x / mean for x in means]


def oracle_forecasts(values, m, theta, h, alpha):
    """(seasonal decision, forecasts) of the seasonal otm pipeline at ``theta``."""
    if not seasonal(values, m):
        return False, ses_with_drift_forecasts(values, theta, h, alpha)
    factors = seasonal_factors(values, m)
    adjusted = [y / factors[t % m] for t, y in enumerate(values)]
    n = len(values)
    forecasts = ses_with_drift_forecasts(adjusted, theta, h, alpha)
    return True, [f * factors[(n + k) % m] for k, f in enumerate(forecasts)]


def seasonal_cases():
    """(series, alpha): 40 seeded walks of periods 4 and 12 times a seeded
    seasonal pattern, from none to strong, some shorter than three cycles."""
    for seed in range(40):
        rng = np.random.default_rng(3000 + seed)
        m = 12 if seed % 2 else 4
        n = int(rng.integers(2 * m, 8 * m))
        t = np.arange(n)
        amplitude = rng.uniform(0.0, 0.4)
        pattern = 1.0 + amplitude * np.sin(2.0 * np.pi * (t % m) / m + rng.uniform(0.0, 2.0 * np.pi))
        level = 200.0 + np.cumsum(rng.normal(rng.uniform(-1.0, 1.0), 2.0, n))
        yield TimeSeries(f"s{seed}", level * pattern, period=m), float(rng.uniform(0.05, 1.0))


def test_the_cases_take_both_decisions():
    decisions = [seasonal(series.values.tolist(), series.period) for series, _ in seasonal_cases()]
    assert any(decisions) and not all(decisions)


@pytest.mark.parametrize("approach", ["a", "d", "h"])
def test_the_seasonal_pipeline_matches_the_plain_oracle(approach):
    for series, alpha in seasonal_cases():
        h = HORIZONS[series.period]
        spec = MethodSpec.otm(approach, extrapolator=ForecasterSpec("ses", alpha=alpha))
        result = run_method(series, h, spec)
        decision, expected = oracle_forecasts(series.values.tolist(), series.period,
                                              result.theta, h, alpha)
        assert result.seasonal == decision, series.id
        np.testing.assert_allclose(result.forecasts, expected, rtol=1e-12, atol=0.0,
                                   err_msg=series.id)
