"""Query protocol costs: connectivity, batched connectivity, bottleneck.

Not a paper table (the paper does not discuss queries) but the natural
companion claim: the maintained structure answers in O(1) rounds, with
batching amortizing like updates do.
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import random_weighted_graph


def _costs(n=400, k=16, seed=0):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    out = {}
    before = dm.net.ledger.rounds
    dm.connected(1, n // 2)
    out["connectivity(1)"] = dm.net.ledger.rounds - before
    before = dm.net.ledger.rounds
    dm.batch_connected([(i, i + n // 2) for i in range(min(64, n // 2 - 1))])
    out["connectivity(64 batched)"] = dm.net.ledger.rounds - before
    before = dm.net.ledger.rounds
    dm.bottleneck_edge(0, n - 1)
    out["bottleneck"] = dm.net.ledger.rounds - before
    before = dm.net.ledger.rounds
    dm.lca(3, n - 2)
    out["lca"] = dm.net.ledger.rounds - before
    before = dm.net.ledger.rounds
    dm.distributed_weight()
    out["forest_weight"] = dm.net.ledger.rounds - before
    return out


def test_query_cost_table():
    rows = []
    for k in (8, 32):
        costs = _costs(k=k)
        for name in sorted(costs):
            rows.append((k, name, costs[name]))
    emit_table(
        "query_costs",
        "Read-query round costs over the maintained structure (n=400)",
        ["k", "query", "rounds"],
        rows,
    )
    by = {(r[0], r[1]): r[2] for r in rows}
    # O(1) single queries; 64 batched cost << 64 singles.
    assert by[(32, "connectivity(1)")] <= by[(8, "connectivity(1)")] + 4
    assert by[(32, "connectivity(64 batched)")] <= 20 * by[(32, "connectivity(1)")]
