"""Evaluation dataset ingestion, persistence, and synthetic corpus generation.

The on-disk format is delimited text, one series per row:

    id,group,period,h,n,y_1,...,y_n,a_1,...,a_h

where the a_* columns are the held-out actuals. A header row is required
(its content is ignored), the decimal separator is ``.``, and ids must not
contain commas. Group is one of Yearly / Quarterly / Monthly / Other. Every
row gives its own period and h; the synthetic generator writes (period, h) =
(1, 6), (4, 8), (12, 18), (1, 8) for the four groups.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import GROUPS
from .series import TimeSeries

GROUP_DEFAULTS = {"Yearly": (1, 6), "Quarterly": (4, 8), "Monthly": (12, 18), "Other": (1, 8)}

# plausible in-sample length ranges for the synthetic generator
_SYNTH_LENGTHS = {"Yearly": (14, 40), "Quarterly": (24, 64), "Monthly": (60, 126), "Other": (20, 60)}

HEADER = "id,group,period,h,n,y_1..y_n,a_1..a_h"


class DatasetError(ValueError):
    """A dataset file violated the documented row format."""


@dataclass(frozen=True)
class DatasetEntry:
    """One corpus row: in-sample series, held-out actuals, frequency group."""

    series: TimeSeries
    actuals: np.ndarray
    group: str

    def __post_init__(self) -> None:
        check_field(self.series.id, "entry", "an id")
        actuals = np.asarray(self.actuals, dtype=np.float64)
        if actuals.ndim != 1 or actuals.size == 0 or not np.all(np.isfinite(actuals)):
            raise ValueError(f"entry {self.series.id!r}: held-out actuals must be finite and non-empty")
        if self.group not in GROUPS:
            raise ValueError(f"entry {self.series.id!r}: unknown group {self.group!r}; "
                             f"expected one of {GROUPS}")
        actuals = actuals.copy()
        actuals.setflags(write=False)
        object.__setattr__(self, "actuals", actuals)

    @property
    def h(self) -> int:
        return self.actuals.size


@dataclass(frozen=True)
class Dataset:
    """Corpus entries in file order; series ids are unique, as output rows are keyed by id."""

    entries: tuple[DatasetEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a dataset needs at least one entry; got none")
        check_unique_ids(entry.series.id for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def check_field(value: str, owner: str, what: str) -> None:
    """Refuse ``value``, ``what`` (say "an id") of an ``owner`` (say "entry"), where
    :func:`read_rows` would split or strip it as a field of an input or output row."""
    if "," in value or "".join(value.splitlines()) != value:  # any break that read_rows splits at
        raise ValueError(f"{owner} {value!r}: {what} must not contain a comma or a line break")
    if value != value.strip():  # read_rows strips every field
        raise ValueError(f"{owner} {value!r}: {what} must not start or end with whitespace")


def check_unique_ids(ids: Iterable[str]) -> None:
    """Raise ``ValueError`` naming the first repeated id."""
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            raise ValueError(f"repeated series id {sid!r}")
        seen.add(sid)


def read_rows(path, parse_row: Callable[[list[str]], object]) -> list:
    """Parse every data row of a comma-separated file with ``parse_row``.

    The first line is a header and is required, and at least one data row
    must follow it; blank lines are skipped.
    ``parse_row`` gets a row's stripped fields, and a ``ValueError`` it
    raises (the validation of ``TimeSeries`` included) becomes a
    :class:`DatasetError` that names the row's line number.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty file (a header row is required)")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rows.append(parse_row([f.strip() for f in line.split(",")]))
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no series rows found")
    return rows


def _parse_entry(fields: list[str]) -> DatasetEntry:
    if len(fields) < 5:
        raise ValueError(f"expected at least 5 fields, got {len(fields)}")
    sid, group = fields[0], fields[1]
    try:
        period, h, n = (int(fields[i]) for i in (2, 3, 4))
    except ValueError:
        raise ValueError("period, h and n must be integers") from None
    if h < 1 or n < 1 or period < 1:
        raise ValueError("period, h and n must be positive")
    if len(fields) != 5 + n + h:
        raise ValueError(f"declared n={n} and h={h} need {5 + n + h} fields, got {len(fields)}")
    try:
        numbers = np.array(list(map(float, fields[5:])))
    except ValueError:
        raise ValueError("non-numeric observation") from None
    series = TimeSeries(sid, numbers[:n], period)
    return DatasetEntry(series=series, actuals=numbers[n:], group=group)


def load_dataset(path) -> Dataset:
    """Parse a dataset file, rejecting malformed rows with their line number."""
    return Dataset(entries=tuple(read_rows(path, _parse_entry)))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the documented row format (full float precision)."""
    path = Path(path)
    rows = [HEADER]
    for e in dataset:
        parts = [e.series.id, e.group, str(e.series.period), str(e.h), str(e.series.n)]
        # repr of each Python float, as repr(float(v)) gives, without a call per value
        parts += map(repr, e.series.values.tolist())
        parts += map(repr, e.actuals.tolist())
        rows.append(",".join(parts))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def synthetic_dataset(seed: int, counts: dict[str, int] | None = None) -> Dataset:
    """A deterministic synthetic corpus: positive trending series with
    multiplicative seasonality on the seasonal groups and lognormal noise.
    Counts must be non-negative with a positive total.
    """
    counts = dict(counts or {"Yearly": 8, "Quarterly": 8, "Monthly": 8, "Other": 6})
    for group, count in counts.items():
        if group not in GROUP_DEFAULTS:
            raise ValueError(f"unknown group {group!r}; expected one of {tuple(GROUP_DEFAULTS)}")
        if count < 0:
            raise ValueError(f"series count of {group} must be >= 0, got {count}")
    if sum(counts.values()) == 0:
        raise ValueError("synthetic corpus needs at least one series; every count is 0")
    rng = np.random.default_rng(seed)
    entries = []
    for group in GROUPS:
        period, h = GROUP_DEFAULTS[group]
        lo, hi = _SYNTH_LENGTHS[group]
        for i in range(counts.get(group, 0)):
            n = int(rng.integers(lo, hi + 1))
            total = n + h
            t = np.arange(1, total + 1, dtype=np.float64)
            level = rng.uniform(50.0, 5000.0)
            # slope bounded so the trend ends between 0.4x and 2.5x the level
            slope = level * rng.uniform(-0.6, 1.5) / total
            base = level + slope * t
            if period > 1:
                amplitude = rng.uniform(0.05, 0.4)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                base = base * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period + phase))
            noise = rng.normal(0.0, rng.uniform(0.01, 0.08), total)
            y = base * np.exp(noise)
            entries.append(
                DatasetEntry(
                    series=TimeSeries(f"{group[0]}{i + 1}", y[:n], period),
                    actuals=y[n:],
                    group=group,
                )
            )
    return Dataset(entries=tuple(entries))
