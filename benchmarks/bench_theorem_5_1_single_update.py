"""T5.1 — one update in O(1) rounds, independent of n.

Series: mean rounds per single update vs n and vs k.
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph


def _mean_single_rounds(n, k, seed=0, updates=16):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    costs = [
        dm.apply_one_at_a_time(b).rounds
        for b in churn_stream(dm.shadow.copy(), 1, updates, rng=rng)
        if b
    ]
    return float(np.mean(costs))


def test_single_update_round_table():
    rows = []
    for n, k in ((64, 8), (256, 8), (1024, 8), (256, 4), (256, 16), (256, 32)):
        rows.append((n, k, round(_mean_single_rounds(n, k), 1)))
    emit_table(
        "theorem_5_1_single_update",
        "Theorem 5.1 — rounds per single update (claim: O(1), no n dependence)",
        ["n", "k", "mean_rounds_per_update"],
        rows,
    )
    by_n = {r[0]: r[2] for r in rows if r[1] == 8}
    assert by_n[1024] <= 1.6 * by_n[64]
