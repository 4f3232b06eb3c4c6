"""The benchmark's traced path, run once on a tiny corpus.

``bench/tracing.py`` replaces package functions by name and unpacks their
arguments, so a rename in ``src/`` can silently zero a layer or break a
hook. This runs one traced ``evaluate`` the way ``bench/run.py`` does.
"""

import importlib
from collections import Counter
from pathlib import Path

from optitheta.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
METHODS = ("theta", "otm-a", "naive2", "holt-winters")


def test_traced_evaluate_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    corpus = tmp_path / "corpus.csv"
    assert main(["synth", "--out", str(corpus), "--seed", "3", "--yearly", "1",
                 "--quarterly", "1", "--monthly", "1", "--other", "0"]) == 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        rc = main(["evaluate", "--data", str(corpus), "--methods", ",".join(METHODS),
                   "--workers", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    cells = Counter(name for name in tracer.names if name.startswith("pipeline."))
    assert cells == {f"pipeline.{method}": 3 for method in METHODS}
    # the stale hooks, names pipeline and groe no longer have, left for the
    # next benchmark change to fix
    assert tracer.missing_hooks == [
        "optitheta.pipeline.estimate_theta", "optitheta.groe.otm_forecast"]
