import numpy as np
import pytest

from optitheta import Dataset, DatasetError, load_dataset, save_dataset, synthetic_dataset
from optitheta.cli import main
from optitheta.dataset import GROUP_DEFAULTS, HEADER


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
