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
    "forecasts.csv": "1f587d75d327a32756fc84f720cdbcbbd40d4596a73a1fd42c52b704a0e8345c",
    "scores.csv": "1ba297d608119e829ffa8b1e1018b80f18574994e47fa357f68f2a89683c14f7",
    "ranks.csv": "b7ad4abf603cc04fd6d7d31a567717a7979553218ddc4e4c21e889d446cce520",
}
# aggregate.csv without its last column, elapsed_sec, which is wall time
AGGREGATE_GOLDEN = "931325684a5188adbd303311a1fbc7338149e57a6adbbeb6872bda046737a82e"

# the damped extrapolator's theta selection searches the 193,819-point grid
# at every origin; three short series keep it to a few seconds
DAMPED_COUNTS = {"Yearly": 1, "Quarterly": 1, "Monthly": 0, "Other": 1}
DAMPED_GOLDEN = {
    "forecasts.csv": "ec73414f9d0d50608b3eb514184bbbf1e0bbcf67dcce332f87d46660934fa409",
    "scores.csv": "e5a090b8e1641cabed02d64bb1a0f6699c67095b2f98a12c1532212d4d55c159",
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
