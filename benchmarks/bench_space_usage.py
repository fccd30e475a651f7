"""T6.1 (space) — peak per-machine words ≤ const · max(k, m/k + Δ).

Series: measured peak vs the bound across workload shapes, including the
max-degree star stress.
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import churn_stream, powerlaw_graph, random_weighted_graph, star_graph


def _peak(graph, k, seed=0, batches=4):
    rng = np.random.default_rng(seed)
    dm = DynamicMST.build(graph, k, rng=rng, init="free")
    for batch in churn_stream(dm.shadow.copy(), k, batches, rng=rng):
        dm.apply_batch(batch)
    bound = max(k, graph.m // k + graph.max_degree())
    return dm.peak_space_words(), bound


def test_space_table():
    rng = np.random.default_rng(0)
    cases = [
        ("uniform", random_weighted_graph(200, 1000, rng), 8),
        ("uniform_k32", random_weighted_graph(200, 1000, rng), 32),
        ("powerlaw", powerlaw_graph(200, attach=3, rng=rng), 8),
        ("star", star_graph(150, rng=rng), 8),
    ]
    rows = []
    for name, g, k in cases:
        peak, bound = _peak(g, k)
        rows.append((name, k, g.m, g.max_degree(), bound, peak,
                     round(peak / bound, 2)))
    emit_table(
        "space_usage",
        "Theorem 6.1 (space) — peak machine words vs max(k, m/k + Δ)",
        ["workload", "k", "m", "Δ", "bound", "peak_words", "ratio"],
        rows,
    )
    assert all(r[6] <= 40 for r in rows)  # constant-factor overhead
