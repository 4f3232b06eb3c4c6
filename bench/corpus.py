"""Seeded synthetic corpora for the benchmark.

The series follow the model of ``optitheta.synthetic_dataset``: a positive
linear trend, multiplicative sine seasonality on the seasonal groups and
lognormal noise, with the same length ranges and forecast horizons per
group. The parameters of a group's series are drawn by Latin hypercube
sampling: the range of each parameter (length, level, growth, seasonal
amplitude, noise level) is cut into as many equal strata as the group has
series, each series gets one stratum of each parameter, and the seed picks
the pairing and the point inside each stratum. Compared with independent
draws, cost and accuracy then vary much less from seed to seed, so a small
corpus gives a steady measurement while every seed is still a different
corpus.
"""

from __future__ import annotations

import numpy as np
from optitheta import Dataset, DatasetEntry, TimeSeries

# group -> (period, h, shortest n, longest n), as in optitheta.dataset
GROUPS = {
    "Yearly": (1, 6, 14, 40),
    "Quarterly": (4, 8, 24, 64),
    "Monthly": (12, 18, 60, 126),
    "Other": (1, 8, 20, 60),
}


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [lo, hi), shuffled."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count


def generate(seed: list[int], counts: dict[str, int]) -> Dataset:
    """A corpus with ``counts[group]`` series per group, in group order."""
    rng = np.random.default_rng(seed)
    entries = []
    for group, (period, h, lo, hi) in GROUPS.items():
        count = counts.get(group, 0)
        if not count:
            continue
        lengths = np.floor(_strata(rng, count, lo, hi + 1)).astype(int)
        levels = _strata(rng, count, 50.0, 5000.0)
        growths = _strata(rng, count, -0.6, 1.5)
        amplitudes = _strata(rng, count, 0.05, 0.4)
        noise_sds = _strata(rng, count, 0.01, 0.08)
        for i in range(count):
            n = int(lengths[i])
            t = np.arange(1, n + h + 1, dtype=np.float64)
            # growth bounds the trend to end between 0.4x and 2.5x the level
            base = levels[i] * (1.0 + growths[i] * t / t.size)
            if period > 1:
                phase = rng.uniform(0.0, 2.0 * np.pi)
                base = base * (1.0 + amplitudes[i] * np.sin(2.0 * np.pi * t / period + phase))
            y = base * np.exp(rng.normal(0.0, noise_sds[i], t.size))
            entries.append(
                DatasetEntry(
                    series=TimeSeries(f"{group[0]}{i + 1}", y[:n], period),
                    actuals=y[n:],
                    group=group,
                )
            )
    return Dataset(entries=tuple(entries))
