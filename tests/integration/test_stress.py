"""Larger randomized stress runs (opt-in: pytest --stress).

Without --stress these run a scaled-down version so CI still exercises
the code path.
"""

import numpy as np

from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph
from repro.mpc import MPCDynamicMST


def _scale(stress):
    return (1200, 4800, 24, 12) if stress else (150, 500, 8, 4)


def test_long_stream_kmachine(stress):
    n, m, k, batches = _scale(stress)
    rng = np.random.default_rng(0)
    g = random_weighted_graph(n, m, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    for batch in churn_stream(dm.shadow.copy(), k, batches, rng=rng):
        dm.apply_batch(batch)
    dm.check()
    rounds = [r.rounds for r in dm.reports]
    # Flat over the stream: last quarter no worse than 2x the first.
    q = max(1, len(rounds) // 4)
    assert np.mean(rounds[-q:]) <= 2.5 * np.mean(rounds[:q]) + 50


def test_long_stream_mpc(stress):
    n, m, k, batches = _scale(stress)
    rng = np.random.default_rng(1)
    g = random_weighted_graph(n, m, rng)
    dm = MPCDynamicMST.build(g, k, rng=rng, init="free")
    for batch in churn_stream(dm.shadow.copy(), k, batches, rng=rng):
        dm.apply_batch(batch)
    dm.check()


def test_distributed_init_scale(stress):
    n, m, k, _ = _scale(stress)
    rng = np.random.default_rng(2)
    g = random_weighted_graph(n, m, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="distributed")
    dm.check()
    # O(n/k + log n) with the measured constant ~34.
    assert dm.init_rounds <= 60 * (n // k + 20)
