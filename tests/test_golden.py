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
    "forecasts.csv": "1f587d75d327a32756fc84f720cdbcbbd40d4596a73a1fd42c52b704a0e8345c",
    "scores.csv": "1ba297d608119e829ffa8b1e1018b80f18574994e47fa357f68f2a89683c14f7",
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
