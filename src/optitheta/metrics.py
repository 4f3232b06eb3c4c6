"""Out-of-sample accuracy measures and cross-method rank comparison."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

GROUPS = ("Yearly", "Quarterly", "Monthly", "Other")
ALL_GROUP = "All"


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input; callers report and exclude it."""


def _paired(actuals, forecasts) -> tuple[np.ndarray, np.ndarray]:
    # forecasts may be (h,) or (k, h), one row per forecast of the same actuals
    a = np.asarray(actuals, dtype=np.float64)
    f = np.asarray(forecasts, dtype=np.float64)
    if a.ndim != 1 or f.ndim not in (1, 2) or f.shape[-1:] != a.shape:
        raise ValueError(
            f"actuals must be 1-d and forecasts (h,) or (k, h) of equal length h, got {a.shape} vs {f.shape}"
        )
    if a.size == 0:
        raise ValueError("need at least one forecast to score")
    return a, f


def sape(a, b):
    """Symmetric absolute percentage error 2|a-b| / (|a|+|b|), with 0/0 -> 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.abs(a) + np.abs(b)
    # doubled after the division, so it cannot overflow
    out = 2.0 * np.divide(np.abs(a - b), denom, out=np.zeros_like(denom), where=denom != 0)
    return out if out.ndim else float(out)


def smape(actuals, forecasts) -> float | np.ndarray:
    """Symmetric MAPE in percent: (100/h) * sum(sape(y, yhat)). Always in [0, 200].

    Forecasts of shape (k, h) give one value per row, each bit-equal to the
    row's own call: a row sum along the last axis is the same pairwise sum.
    """
    a, f = _paired(actuals, forecasts)
    out = 100.0 * sape(a, f).sum(axis=-1) / a.size
    return out if out.ndim else float(out)


@np.errstate(over="ignore")  # a value beyond the float range is inf
def mase(insample, actuals, forecasts) -> float | np.ndarray:
    """Mean absolute error scaled by the in-sample mean absolute first difference.

    Forecasts of shape (k, h) give one value per row, as :func:`smape` does,
    from one in-sample scale. Raises :class:`UndefinedMetricError` when the
    in-sample series is constant (zero scaling denominator). A value beyond
    the float range is inf.
    """
    y = np.asarray(insample, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise ValueError(f"in-sample series must be 1-d with n >= 2, got shape {y.shape}")
    a, f = _paired(actuals, forecasts)
    # keeps the sums in range: y is scaled by the power of two that puts max|y| in [0.5, 1),
    # so no step of y is lost beside a far larger a, and a and f by the one for max(|y|, |a|),
    # which every row of f shares; exact but for errors some 2**1022 below that maximum
    top = np.abs(y).max()
    shift, common = -np.frexp(top)[1], -np.frexp(max(top, np.abs(a).max()))[1]
    scale = float(np.abs(np.diff(np.ldexp(y, shift))).sum())
    if scale == 0.0:
        raise UndefinedMetricError("constant in-sample series: scaled error undefined")
    errors = np.abs(np.ldexp(a, common) - np.ldexp(f, common)).sum(axis=-1)
    out = np.ldexp((y.size - 1) / a.size * errors / scale, shift - common)
    return out if out.ndim else float(out)


def average_ranks(scores: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Mean rank of each method across series (rank 1 = lowest error).

    Tied scores in a series share the mean of the positions they occupy:
    a score with ``below`` strictly smaller and ``tied`` equal scores
    (itself included) ranks ``below + (tied + 1) / 2``. Every method must
    provide a finite score for every series; incomplete matrices are refused.
    """
    methods = list(scores)
    if not methods:
        raise ValueError("need at least one method to rank")
    rows = [np.asarray(scores[m], dtype=np.float64) for m in methods]
    if any(r.ndim != 1 or r.size == 0 or r.size != rows[0].size for r in rows):
        raise ValueError("every method needs the same, non-empty series list")
    matrix = np.array(rows)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("missing or non-finite scores: rank matrix must be complete")
    # (other method, method, series): compare every score with its column
    below = (matrix[:, None, :] < matrix[None, :, :]).sum(axis=0)
    tied = (matrix[:, None, :] == matrix[None, :, :]).sum(axis=0)
    ranks = below + (tied + 1) / 2
    return {m: float(r) for m, r in zip(methods, ranks.mean(axis=1))}


@dataclass(frozen=True)
class SeriesScore:
    """One (series, method) evaluation cell.

    ``smape``/``mase`` are None when undefined or failed; ``error`` carries
    the failure message when the method produced no forecasts at all.
    """

    series_id: str
    group: str
    method: str
    smape: float | None
    mase: float | None
    theta: float | None = None
    elapsed: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    """Per (method, group) means in the shape of an M3-style results table."""

    method: str
    group: str
    n_series: int
    n_smape: int
    n_mase: int
    n_failed: int
    smape_mean: float | None
    mase_mean: float | None
    elapsed: float


def _mean(values: list[float]) -> float:
    # the correctly rounded sum over the count, or, when that sum is beyond the
    # float range, the sum of each value over the count; both are order-free
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.fsum(v / len(values) for v in values)


def aggregate_scores(scores: Iterable[SeriesScore]) -> list[AggregateRow]:
    """Fold per-series scores into per-group and All rows, one set per method.

    A mean does not depend on the order of the scores (see :func:`_mean`).
    The All row averages over every scored series, not over group means.
    """
    scores = list(scores)
    rows: list[AggregateRow] = []
    for method in dict.fromkeys(s.method for s in scores):
        per_method = [s for s in scores if s.method == method]
        for group in GROUPS + (ALL_GROUP,):
            cells = per_method if group == ALL_GROUP else [s for s in per_method if s.group == group]
            if group != ALL_GROUP and not cells:
                continue
            smapes = [s.smape for s in cells if s.smape is not None]
            mases = [s.mase for s in cells if s.mase is not None]
            rows.append(
                AggregateRow(
                    method=method,
                    group=group,
                    n_series=len(cells),
                    n_smape=len(smapes),
                    n_mase=len(mases),
                    n_failed=sum(1 for s in cells if s.error is not None),
                    smape_mean=_mean(smapes) if smapes else None,
                    mase_mean=_mean(mases) if mases else None,
                    elapsed=float(sum(s.elapsed for s in cells)),
                )
            )
    return rows
