"""Golden output lock: a fixed corpus and method set must keep byte-identical outputs.

A change that is meant to leave forecasts alone (a speedup, a refactor) fails
here if it moves any forecast, score or selected theta by a single bit. A
deliberate change of outputs updates the digests and says why.
"""

import hashlib

from optitheta import ExperimentConfig, run_experiment, synthetic_dataset
from optitheta.cli import BENCHMARK_TOKENS, parse_method_token
from optitheta.groe import DEFAULT_THETA_GRID

TOKENS = ("theta", "otm-a", "otm-d", *BENCHMARK_TOKENS)

GOLDEN = {
    "forecasts.csv": "07cd44044891389ad7b01bd1766751894a1b55c2a8ec7bfb3662e308b3625b48",
    "scores.csv": "ba024d70c1ab29a6f5d47e1613bb2cb66d8285abd36975bd23668b2a5f20b391",
    "ranks.csv": "b7ad4abf603cc04fd6d7d31a567717a7979553218ddc4e4c21e889d446cce520",
}


def test_outputs_match_golden_digests(tmp_path):
    dataset = synthetic_dataset(42, {"Yearly": 3, "Quarterly": 3, "Monthly": 3, "Other": 2})
    methods = tuple(parse_method_token(t, "se", "ses", DEFAULT_THETA_GRID) for t in TOKENS)
    result = run_experiment(dataset, ExperimentConfig(methods=methods, workers=1, out_dir=tmp_path))
    assert all(s.error is None for s in result.scores)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
