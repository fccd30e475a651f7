"""Bandwidth sensitivity: rounds vs the per-link word budget.

The model fixes Θ(log n) bits per link per round; real deployments have
fatter links.  Sweeping ``words_per_round`` shows the protocol's round
count is inversely proportional until the R (dependency-set) term of
Lemma 4.2 floors it — i.e. the measured O(B/k + R) decomposition.
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph


def _mean_rounds(words_per_round, n=300, k=12, seed=0):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free",
                          words_per_round=words_per_round)
    costs = [
        dm.apply_batch(b).rounds
        for b in churn_stream(dm.shadow.copy(), k, 4, rng=rng)
        if b
    ]
    return float(np.mean(costs))


def test_bandwidth_table():
    rows = []
    base = None
    for w in (1, 2, 4, 8, 32, 128):
        r = _mean_rounds(w)
        if base is None:
            base = r
        rows.append((w, round(r, 1), round(base / r, 2)))
    emit_table(
        "bandwidth_sensitivity",
        "Rounds per size-k batch vs per-link words/round (n=300, k=12)",
        ["words_per_round", "mean_rounds", "speedup_vs_1"],
        rows,
    )
    by = {r[0]: r[1] for r in rows}
    assert by[8] < by[1] / 3          # bandwidth helps
    assert by[128] >= by[32] * 0.5    # ...until the R term floors it
    assert by[128] > 5                # supersteps never go below R
