"""T6.1 (additions) — k insertions in O(1) rounds, deterministic.

Series: rounds per batch vs batch size b at fixed k (flat to b = k,
linear in b/k beyond) and vs k at b = k (flat).
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import growing_stream, random_weighted_graph


def _mean_add_batch_rounds(n, k, b, seed=0, n_batches=4):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 2 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    costs = [
        dm.apply_batch(batch).rounds
        for batch in growing_stream(dm.shadow.copy(), b, n_batches, rng)
        if batch
    ]
    return float(np.mean(costs))


def test_addition_round_table():
    k = 16
    rows_b = [
        (k, b, round(_mean_add_batch_rounds(400, k, b), 1))
        for b in (1, 2, 4, 8, 16, 32, 64)
    ]
    rows_k = [
        (kk, kk, round(_mean_add_batch_rounds(400, kk, kk), 1))
        for kk in (4, 8, 16, 32, 64)
    ]
    emit_table(
        "theorem_6_1_additions",
        "Theorem 6.1 (additions) — rounds per batch "
        "(claims: flat in b up to k; flat in k at b = k)",
        ["k", "batch", "mean_rounds"],
        rows_b + rows_k,
    )
    flat_k = [r[2] for r in rows_k[2:]]
    assert max(flat_k) <= 1.5 * min(flat_k)
    by_b = {r[1]: r[2] for r in rows_b}
    assert by_b[64] / by_b[16] >= 1.8  # linear regime beyond b = k
