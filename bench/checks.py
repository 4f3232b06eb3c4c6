"""Output checks for the benchmark.

Every ``optitheta evaluate`` call the benchmark makes is checked cell by
cell, one cell being one (series, method) pair:

* ``forecasts.csv`` has exactly one row per cell, with h finite forecasts;
* the theta of an ``otm-*`` cell lies on the default grid, classic Theta
  reports theta = 2 and the smoothing benchmarks report none;
* ``scores.csv`` agrees with sMAPE and MASE recomputed here, from the
  forecasts and the corpus, with formulas written independently of the
  package.

The lock corpora are also compared with the reference outputs committed
under ``bench/ref/``: forecasts and scores within ``REL_TOL`` relative and
theta identical. A cell that fails any check counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

# the default grid of `optitheta evaluate` (no --grid flag is passed)
THETA_GRID = frozenset(1.0 + 0.5 * i for i in range(9))
CLASSIC_THETA = 2.0
REL_TOL = 1e-9
ABS_TOL = 1e-12

FORECASTS_FILE = "forecasts.csv"
SCORES_FILE = "scores.csv"


@dataclass(frozen=True)
class CorpusEntry:
    values: tuple[float, ...]
    actuals: tuple[float, ...]


def read_corpus(path: Path) -> dict[str, CorpusEntry]:
    """Series id -> in-sample values and held-out actuals of a dataset file."""
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split(",")
        n = int(fields[4])
        numbers = tuple(float(v) for v in fields[5:])
        entries[fields[0]] = CorpusEntry(values=numbers[:n], actuals=numbers[n:])
    return entries


def _read_rows(path: Path, width: int) -> dict[tuple[str, str], list[str]]:
    """(id, method) -> remaining fields; a duplicated key maps to None."""
    rows: dict[tuple[str, str], list[str] | None] = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split(",")
        key = (fields[0], fields[1])
        rows[key] = None if key in rows or len(fields) < width else fields[2:]
    return rows


def read_outputs(out_dir: Path):
    """The forecasts and scores tables of one evaluate call, keyed by cell."""
    return _read_rows(out_dir / FORECASTS_FILE, 5), _read_rows(out_dir / SCORES_FILE, 5)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


def _smape(actuals, forecasts) -> float:
    total = 0.0
    for a, f in zip(actuals, forecasts):
        denom = abs(a) + abs(f)
        if denom != 0.0:
            total += abs(a - f) / denom
    return 200.0 / len(actuals) * total


def _mase(values, actuals, forecasts) -> float | None:
    scale = sum(abs(b - a) for a, b in zip(values, values[1:]))
    if scale == 0.0:
        return None
    mae = sum(abs(a - f) for a, f in zip(actuals, forecasts))
    return (len(values) - 1) / len(actuals) * mae / scale


def _theta_ok(method: str, theta: float | None) -> bool:
    if method == "theta":
        return theta == CLASSIC_THETA
    if method.startswith("otm-"):
        return theta in THETA_GRID
    return theta is None


def _cell_ok(entry: CorpusEntry, method: str, fc: list[str] | None, sc: list[str] | None) -> bool:
    if fc is None or sc is None:
        return False
    try:
        theta = _optional_float(fc[0])
        forecasts = [float(v) for v in fc[2:]]
        smape_value, mase_value, score_theta = (_optional_float(v) for v in sc[:3])
    except ValueError:
        return False
    if len(forecasts) != len(entry.actuals) or not all(math.isfinite(v) for v in forecasts):
        return False
    if not _theta_ok(method, theta) or score_theta != theta:
        return False
    if smape_value is None or not _close(smape_value, _smape(entry.actuals, forecasts)):
        return False
    expected_mase = _mase(entry.values, entry.actuals, forecasts)
    if expected_mase is None:
        return mase_value is None
    return mase_value is not None and _close(mase_value, expected_mase)


def check_cells(corpus: dict[str, CorpusEntry], methods: list[str], out_dir: Path) -> set:
    """The cells of one evaluate call that fail the output checks."""
    forecasts, scores = read_outputs(out_dir)
    expected = {(sid, m) for sid in corpus for m in methods}
    failed = {key for key in set(forecasts) | set(scores) if key not in expected}
    for sid, entry in corpus.items():
        for method in methods:
            key = (sid, method)
            if not _cell_ok(entry, method, forecasts.get(key), scores.get(key)):
                failed.add(key)
    return failed


def _same_floats(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if (g == "") != (w == ""):
            return False
        if g != "" and not _close(float(g), float(w)):
            return False
    return True


def compare_reference(out_dir: Path, ref_dir: Path) -> set:
    """The cells whose outputs differ from the committed reference."""
    got_fc, got_sc = read_outputs(out_dir)
    want_fc, want_sc = read_outputs(ref_dir)
    failed = set()
    # theta is column 0 of a forecasts row and column 2 of a scores row
    for got, want, theta_col in ((got_fc, want_fc, 0), (got_sc, want_sc, 2)):
        for key in set(got) | set(want):
            g, w = got.get(key), want.get(key)
            if (
                g is None
                or w is None
                or not _same_floats(g, w)
                or _optional_float(g[theta_col]) != _optional_float(w[theta_col])
            ):
                failed.add(key)
    return failed
