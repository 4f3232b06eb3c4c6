"""Golden output lock: a fixed corpus and method set must keep byte-identical outputs.

A change that is meant to leave forecasts alone (a speedup, a refactor) fails
here if it moves any forecast, score, aggregate mean or selected theta by a
single bit. A deliberate change of outputs updates the digests and says why.
"""

import hashlib

from optitheta import ExperimentConfig, run_experiment, synthetic_dataset
from optitheta.cli import BENCHMARK_TOKENS, parse_method_token
from optitheta.groe import DEFAULT_THETA_GRID

TOKENS = ("theta", "otm-a", "otm-d", *BENCHMARK_TOKENS)

GOLDEN = {
    "forecasts.csv": "8c11ed5714f79c8e858bdcb8216106729778adc59b7fb76c20773c152fb5d20b",
    "scores.csv": "bd3a2765db99da678dda3f5ea9aebbe95647500d6d19418b470dc9b899dfaf20",
    "ranks.csv": "ec907e7c822ec7c83a7759a8d3b98c43dcfa02e7c8dd3541e5a9056e8b3dbac1",
}
# aggregate.csv without its last column, elapsed_sec, which is wall time; its
# means divide an exact sum by the count, so no corpus order moves them
AGGREGATE_GOLDEN = "893841f9ade2d4ad19d79bdbd2bd6493edc5741cccf0291cbdeddb65829fbebb"

# the damped extrapolator's theta selection searches the 193,819-point grid
# at every origin; three short series keep it to a few seconds
DAMPED_COUNTS = {"Yearly": 1, "Quarterly": 1, "Monthly": 0, "Other": 1}
DAMPED_GOLDEN = {
    "forecasts.csv": "12e6e274b4dea77b5f63e52411c12c0ce66a5ae45456b24138d35686d27be176",
    "scores.csv": "729f94da8b05a087a4cdd532ab037e56365c0b1bf3cfe8add8917cf1cae7a0d3",
}


def run_digests(tmp_path, counts, tokens, extrapolator, names):
    dataset = synthetic_dataset(42, counts)
    methods = tuple(parse_method_token(t, "se", extrapolator, DEFAULT_THETA_GRID) for t in tokens)
    result = run_experiment(dataset, ExperimentConfig(methods=methods, workers=1, out_dir=tmp_path))
    assert all(s.error is None for s in result.scores)
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


def test_outputs_match_golden_digests(tmp_path):
    counts = {"Yearly": 3, "Quarterly": 3, "Monthly": 3, "Other": 2}
    assert run_digests(tmp_path, counts, TOKENS, "ses", GOLDEN) == GOLDEN
    rows = (tmp_path / "aggregate.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].endswith(",elapsed_sec")
    timeless = "".join(row.rsplit(",", 1)[0] + "\n" for row in rows)
    assert hashlib.sha256(timeless.encode()).hexdigest() == AGGREGATE_GOLDEN


def test_damped_extrapolator_outputs_match_golden_digests(tmp_path):
    digests = run_digests(tmp_path, DAMPED_COUNTS, ("otm-a", "otm-d"), "damped", DAMPED_GOLDEN)
    assert digests == DAMPED_GOLDEN
