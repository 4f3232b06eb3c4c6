import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from optitheta import Dataset, DatasetError, TimeSeries, load_dataset, save_dataset, synthetic_dataset
from optitheta.cli import main
from optitheta.dataset import GROUP_DEFAULTS, HEADER, DatasetEntry


def write(tmp_path, rows):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def test_load_well_formed_rows(tmp_path):
    path = write(
        tmp_path,
        [
            "Y1,Yearly,1,2,4,10,11,12,13,14,15",
            "Q1,Quarterly,4,2,8,1,2,3,4,5,6,7,8,9,10",
        ],
    )
    ds = load_dataset(path)
    assert len(ds) == 2
    first = ds.entries[0]
    assert first.series.id == "Y1" and first.group == "Yearly"
    assert first.series.n == 4 and first.h == 2
    assert np.allclose(first.actuals, [14.0, 15.0])


def test_reject_wrong_holdout_count(tmp_path):
    # declares h=3 but carries 2 held-out values
    path = write(tmp_path, ["Y1,Yearly,1,3,4,10,11,12,13,14,15"])
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_reject_non_numeric(tmp_path):
    path = write(tmp_path, ["Y1,Yearly,1,1,3,10,abc,12,13"])
    with pytest.raises(DatasetError, match="line 2.*non-numeric"):
        load_dataset(path)


def test_reject_unknown_group(tmp_path):
    path = write(tmp_path, ["X1,Weekly,1,1,2,10,11,12"])
    with pytest.raises(DatasetError, match="unknown group"):
        load_dataset(path)


def test_reject_missing_values(tmp_path):
    path = write(tmp_path, ["Y1,Yearly,1,1,2,10,nan,12"])
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_reject_repeated_series_id(tmp_path, capsys):
    path = write(tmp_path, ["Y1,Yearly,1,1,2,10,11,12", "Y1,Yearly,1,1,2,20,21,22"])
    with pytest.raises(ValueError, match="repeated series id 'Y1'"):
        load_dataset(path)
    rc = main(["evaluate", "--data", str(path), "--methods", "naive",
               "--out-dir", str(tmp_path / "r")])
    assert rc == 2
    assert "repeated series id 'Y1'" in capsys.readouterr().err


def test_line_numbers_skip_blanks(tmp_path):
    path = write(tmp_path, ["Y1,Yearly,1,1,2,10,11,12", "", "bad"])
    with pytest.raises(DatasetError, match="line 4"):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError, match="header"):
        load_dataset(path)


def test_header_only_file_rejected(tmp_path):
    with pytest.raises(DatasetError, match="no series rows"):
        load_dataset(write(tmp_path, ["", ""]))


def test_round_trip(tmp_path):
    ds = synthetic_dataset(99, {"Yearly": 20, "Quarterly": 15, "Monthly": 10, "Other": 5})
    assert len(ds) == 50
    path = tmp_path / "corpus.csv"
    save_dataset(ds, path)
    again = load_dataset(path)
    assert len(again) == len(ds)
    for a, b in zip(ds, again):
        assert a.series.id == b.series.id
        assert a.group == b.group
        assert a.series.period == b.series.period
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.actuals, b.actuals)



SAVED_VALUES = [0.1 + 0.2, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1 / 3, -7.25,
                123456789.0, 1e16, 1.7976931348623157e308]


@example(SAVED_VALUES)
@example(SAVED_VALUES[::-1])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=20))
def test_saved_rows_equal_the_per_value_form(values):
    entry = DatasetEntry(TimeSeries("S1", values[:-1], 1), values[-1:], "Other")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "one.csv"
        save_dataset(Dataset((entry,)), path)
        header, row = path.read_text(encoding="utf-8").splitlines()
    numbers = [*entry.series.values, *entry.actuals]
    assert row == ",".join(["S1", "Other", "1", "1", str(len(values) - 1), *(repr(float(v)) for v in numbers)])
    assert header == HEADER

def test_synthetic_is_deterministic():
    first = synthetic_dataset(7)
    second = synthetic_dataset(7)
    for a, b in zip(first, second):
        assert np.array_equal(a.series.values, b.series.values)
    third = synthetic_dataset(8)
    assert not np.array_equal(first.entries[0].series.values, third.entries[0].series.values)


def test_synthetic_respects_group_conventions():
    ds = synthetic_dataset(1, {"Yearly": 2, "Quarterly": 2, "Monthly": 2, "Other": 2})
    for entry in ds:
        period, h = GROUP_DEFAULTS[entry.group]
        assert entry.series.period == period
        assert entry.h == h
        assert np.all(entry.series.values > 0)


def test_synthetic_rejects_unknown_group():
    with pytest.raises(ValueError, match="unknown group"):
        synthetic_dataset(1, {"Weekly": 3})


@pytest.mark.parametrize(
    "counts, message",
    [({"Yearly": -3, "Monthly": 2}, ">= 0"), ({"Yearly": 0, "Quarterly": 0}, "at least one series")],
    ids=["negative", "all-zero"],
)
def test_synthetic_rejects_negative_or_zero_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        synthetic_dataset(1, counts)
