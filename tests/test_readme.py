"""The README's Python examples run against the current API, and that API resolves."""

import re
from pathlib import Path

import optitheta
from optitheta import groe, theta

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_the_public_api_resolves_and_keeps_no_slow_reference():
    namespace = {}
    exec("from optitheta import *", namespace)
    assert set(optitheta.__all__) <= namespace.keys()
    # the re-fit GROE loss and the two-line recomposition are test oracles
    # (tests/reference.py); production computes both in closed form
    for name in ("groe_loss", "otm_candidate", "combination_weight", "recompose", "Candidate"):
        for module in (optitheta, groe, theta):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
