import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

import optitheta
from optitheta import (
    UndefinedMetricError,
    aggregate_scores,
    average_ranks,
    mase,
    smape,
)
from optitheta.groe import COST_FUNCTIONS
from optitheta.metrics import SeriesScore, sape

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# sMAPE
# ---------------------------------------------------------------------------


def test_smape_zero_when_equal():
    assert smape([3.0, 4.0], [3.0, 4.0]) == 0.0


def test_smape_single_term():
    assert smape([100.0], [50.0]) == pytest.approx(200.0 * 50.0 / 150.0, abs=1e-12)


def test_smape_two_terms():
    assert smape([1.0, 1.0], [3.0, 1.0]) == pytest.approx(50.0, abs=1e-12)


def test_smape_shape_error():
    with pytest.raises(ValueError, match="equal length"):
        smape([1.0, 2.0], [1.0])


@given(st.lists(finite_floats, min_size=1, max_size=20), st.data())
def test_smape_symmetric_and_bounded(actuals, data):
    forecasts = data.draw(
        st.lists(finite_floats, min_size=len(actuals), max_size=len(actuals))
    )
    forward = smape(actuals, forecasts)
    assert forward == pytest.approx(smape(forecasts, actuals), abs=1e-9)
    assert 0.0 <= forward <= 200.0


@given(st.lists(st.sampled_from([0.0, -0.0]) | finite_floats, min_size=1, max_size=20), st.data())
def test_smape_is_the_textbook_formula_bit_for_bit(actuals, data):
    # written out, with zeros and sign changes: (200/h) * sum(|a-f| / (|a|+|f|)), 0/0 -> 0
    forecasts = data.draw(
        st.lists(st.sampled_from([0.0]) | finite_floats, min_size=len(actuals), max_size=len(actuals))
    )
    a, f = np.array(actuals), np.array(forecasts)
    denom = np.abs(a) + np.abs(f)
    terms = np.divide(np.abs(a - f), denom, out=np.zeros_like(denom), where=denom != 0)
    assert smape(a, f) == float(200.0 * terms.sum() / a.size)


def test_groe_sape_cost_is_the_metrics_term():
    assert COST_FUNCTIONS["sape"] is sape


def test_smape_bound_holds_when_every_term_is_one():
    assert smape([1.0] * 11, [0.0] * 11) == 200.0


def test_smape_zero_over_zero_guard():
    assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0


# ---------------------------------------------------------------------------
# MASE
# ---------------------------------------------------------------------------


def test_mase_zero_when_equal():
    assert mase([1.0, 2.0, 4.0], [5.0], [5.0]) == 0.0


def test_mase_hand_values():
    assert mase([1.0, 2.0, 3.0], [4.0], [3.0]) == pytest.approx(1.0, abs=1e-12)
    assert mase([0.0, 2.0, 0.0, 2.0], [2.0, 2.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_mase_scale_free():
    insample = [3.0, 5.0, 4.0, 7.0]
    actuals, forecasts = [8.0, 6.0], [7.0, 7.0]
    base = mase(insample, actuals, forecasts)
    for c in (1e-3, 17.0, 1e4):
        scaled = mase(
            [c * v for v in insample], [c * v for v in actuals], [c * v for v in forecasts]
        )
        assert scaled == pytest.approx(base, rel=1e-12)


def test_mase_undefined_for_constant_insample():
    with pytest.raises(UndefinedMetricError):
        mase([2.0, 2.0, 2.0], [1.0], [2.0])


def test_mase_needs_two_insample_points():
    with pytest.raises(ValueError, match="n >= 2"):
        mase([1.0], [1.0], [1.0])


def test_mase_undefined_for_constant_insample_with_stacked_forecasts():
    with pytest.raises(UndefinedMetricError):
        mase([2.0, 2.0, 2.0], [1.0, 3.0], [[2.0, 2.0], [1.0, 3.0]])


def test_mase_near_the_float_limit_is_exact():
    # the raw errors of a naive forecast sum past the float range; scaled, they do not
    assert mase(np.linspace(1e308, 1.4e308, 8), np.ones(3), np.full(3, 1.4e308)) == 24.5


def test_mase_beyond_the_float_range_is_inf():
    # subnormal in-sample steps against unit errors: the true value is about 1e311
    assert mase(np.linspace(1e-310, 1.7e-310, 8), np.ones(3), np.full(3, 1.7e-310)) == np.inf


def test_mase_keeps_an_in_sample_step_far_below_the_actuals():
    # a subnormal step beside unit actuals is no constant series: the true
    # value, about 2e323, is beyond the float range, and exact forecasts score 0
    assert mase([0.0, 5e-324], [1.0], [0.0]) == np.inf
    assert mase([0.0, 5e-324], [1.0], [1.0]) == 0.0


@settings(deadline=None, max_examples=200)
@given(st.integers(-200, 200), st.integers(2, 30), st.integers(1, 18), st.integers(1, 4), st.data())
def test_mase_keeps_the_bits_of_the_unscaled_formula(exponent, n, h, k, data):
    # at scales where the unscaled formula neither overflows nor goes subnormal
    def draw(size):
        ints = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size))
        return np.array(ints) / 1000 * 10.0**exponent

    insample, actuals, forecasts = draw(n), draw(h), draw(k * h).reshape(k, h)
    scale = float(np.abs(np.diff(insample)).sum())
    if scale == 0.0:
        with pytest.raises(UndefinedMetricError):
            mase(insample, actuals, forecasts)
        return
    reference = (n - 1) / h * np.abs(actuals - forecasts).sum(axis=-1) / scale
    assert mase(insample, actuals, forecasts).tobytes() == reference.tobytes()


def test_stacked_scores_refuse_mismatched_shapes():
    for forecasts in ([[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]):
        with pytest.raises(ValueError, match="equal length"):
            smape([1.0, 2.0], forecasts)
        with pytest.raises(ValueError, match="equal length"):
            mase([1.0, 2.0, 4.0], [1.0, 2.0], forecasts)


# ---------------------------------------------------------------------------
# stacked scores: one call for the forecasts of every method of a series
# ---------------------------------------------------------------------------

# exact zeros among finite mantissas, scaled by a power of two below
mantissas = st.sampled_from([0.0, -0.0]) | st.floats(min_value=-16.0, max_value=16.0, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(st.integers(-500, 500), st.integers(1, 18), st.integers(1, 6), st.integers(2, 30), st.data())
def test_stacked_scores_equal_the_row_calls_bit_for_bit(scale, h, k, n, data):
    def draw(size):
        return np.ldexp(np.array(data.draw(st.lists(mantissas, min_size=size, max_size=size))), scale)

    insample, actuals, stack = draw(n), draw(h), draw(k * h).reshape(k, h)
    smapes = smape(actuals, stack)
    assert smapes.shape == (k,)
    assert smapes.tobytes() == np.array([smape(actuals, row) for row in stack]).tobytes()
    if not np.abs(np.diff(insample)).sum():
        for forecasts in (stack, stack[0]):
            with pytest.raises(UndefinedMetricError):
                mase(insample, actuals, forecasts)
        return
    mases = mase(insample, actuals, stack)
    assert mases.shape == (k,)
    assert mases.tobytes() == np.array([mase(insample, actuals, row) for row in stack]).tobytes()


# ---------------------------------------------------------------------------
# average ranks
# ---------------------------------------------------------------------------


def test_single_method_ranks_first():
    assert average_ranks({"only": [0.3, 0.9, 0.1]}) == {"only": 1.0}


def test_dominant_method():
    ranks = average_ranks({"a": [1.0, 2.0, 3.0], "b": [2.0, 3.0, 4.0]})
    assert ranks == {"a": 1.0, "b": 2.0}


def test_hand_ranked_table_with_tie():
    scores = {
        "A": [1.0, 2.0, 1.0, 3.0],
        "B": [2.0, 1.0, 1.0, 2.0],
        "C": [3.0, 3.0, 2.0, 1.0],
    }
    ranks = average_ranks(scores)
    assert ranks["A"] == pytest.approx(1.875)
    assert ranks["B"] == pytest.approx(1.625)
    assert ranks["C"] == pytest.approx(2.5)


def test_rank_mean_is_fixed(make_rw):
    rng = np.random.default_rng(12)
    scores = {f"m{i}": rng.uniform(0, 10, 25).tolist() for i in range(5)}
    ranks = average_ranks(scores)
    assert np.mean(list(ranks.values())) == pytest.approx(3.0, abs=1e-12)  # (K+1)/2


def test_ranks_refuse_missing_cells():
    with pytest.raises(ValueError, match="complete"):
        average_ranks({"a": [1.0, np.nan], "b": [2.0, 3.0]})
    with pytest.raises(ValueError):
        average_ranks({})
    with pytest.raises(ValueError, match="same, non-empty series list"):
        average_ranks({"a": [1.0, 2.0], "b": [1.0]})


def reference_ranks(matrix) -> list[float]:
    """``scipy.stats.rankdata``'s average ranks, the test-only reference."""
    return [float(r) for r in rankdata(np.asarray(matrix), axis=0).mean(axis=1)]


def assert_ranks_match_reference(matrix):
    ranks = average_ranks({f"m{i}": row for i, row in enumerate(matrix)})
    assert list(ranks.values()) == reference_ranks(matrix)


tied_scores = st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])


@given(
    st.integers(1, 6), st.integers(1, 12), st.sampled_from([tied_scores, finite_floats]), st.data()
)
def test_ranks_equal_the_scipy_reference(n_methods, n_series, scores, data):
    row = st.lists(scores, min_size=n_series, max_size=n_series)
    matrix = data.draw(st.lists(row, min_size=n_methods, max_size=n_methods))
    assert_ranks_match_reference(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.4, 2.0, 7.5]],
        [[3.0], [1.0], [3.0], [2.0]],
        [[-0.0, 1.0], [0.0, 0.0], [0.0, -0.0]],
    ],
    ids=["one-method", "one-series", "signed-zero"],
)
def test_rank_edges_equal_the_scipy_reference(matrix):
    assert_ranks_match_reference(matrix)


def test_runtime_does_not_import_scipy():
    # a fresh interpreter: this one has imported scipy for the reference
    code = (
        "import sys, optitheta, optitheta.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(optitheta.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _score(sid, group, method, smape_v, mase_v, error=None):
    return SeriesScore(
        series_id=sid, group=group, method=method, smape=smape_v, mase=mase_v, error=error
    )


def test_aggregate_all_row_is_series_mean_not_group_mean():
    scores = [
        _score("a", "Yearly", "m", 10.0, 1.0),
        _score("b", "Yearly", "m", 20.0, 2.0),
        _score("c", "Monthly", "m", 40.0, 4.0),
    ]
    rows = {(r.method, r.group): r for r in aggregate_scores(scores)}
    assert rows[("m", "All")].smape_mean == pytest.approx(70.0 / 3.0)
    assert rows[("m", "Yearly")].smape_mean == pytest.approx(15.0)
    assert rows[("m", "All")].n_series == 3


def test_aggregate_excludes_undefined_mase_and_counts_it():
    scores = [
        _score("a", "Other", "m", 5.0, None),
        _score("b", "Other", "m", 7.0, 3.0),
    ]
    rows = {(r.method, r.group): r for r in aggregate_scores(scores)}
    row = rows[("m", "Other")]
    assert row.n_mase == 1 and row.n_smape == 2
    assert row.mase_mean == pytest.approx(3.0)


def test_aggregate_counts_failures():
    scores = [
        _score("a", "Other", "m", None, None, error="ValueError: too short"),
        _score("b", "Other", "m", 7.0, 3.0),
    ]
    rows = {(r.method, r.group): r for r in aggregate_scores(scores)}
    row = rows[("m", "All")]
    assert row.n_failed == 1 and row.n_smape == 1 and row.n_series == 2


def test_aggregate_means_are_exact_sums_in_any_order():
    # an exact sum keeps the last digit for any order of the scores, and a
    # sum beyond the float range still gives its finite mean
    smapes = [0.1, 0.2, 0.3, 0.7, 199.9]
    mases = [1.7e308, 1.7e308, 1.0, 2.0, 3.0]
    means = set()
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [3, 0, 4, 1, 2]):
        scores = [_score(str(i), "Other", "m", smapes[i], mases[i]) for i in order]
        row = next(r for r in aggregate_scores(scores) if r.group == "All")
        means.add((row.smape_mean, row.mase_mean))
    assert means == {(math.fsum(smapes) / 5, 2 * (1.7e308 / 5))}
