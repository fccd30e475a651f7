"""Ablations for the design choices DESIGN.md calls out.

1. cclique engine on *dense* contracted instances (where they separate);
2. Rerouting Lemma on/off (naive broadcasting) under skew;
3. path decomposition vs per-edge processing for addition batches
   (one-at-a-time additions = the no-decomposition strategy).
"""

import numpy as np

from _tables import emit_table
from repro.cclique import CCEdge, cc_msf
from repro.comm import naive_broadcasts, scheduled_broadcasts
from repro.core import DynamicMST
from repro.graphs import growing_stream, random_weighted_graph
from repro.sim import KMachineNetwork


def _dense_cc_rounds(k, engine, seed=0):
    rng = np.random.default_rng(seed)
    nv = k + 1
    g = random_weighted_graph(nv, nv * (nv - 1) // 2, rng)
    local = [[] for _ in range(k)]
    for e in g.edges():
        local[int(rng.integers(0, k))].append(CCEdge.make(e.u, e.v, e.key()))
    net = KMachineNetwork(k)
    cc_msf(net, nv, local, engine=engine, rng=rng)
    return net.ledger.rounds


def test_ablation_cc_engine():
    rows = []
    for k in (8, 16, 32, 64):
        rows.append((k,) + tuple(
            _dense_cc_rounds(k, e) for e in ("boruvka", "lotker", "sample_gather")
        ))
    emit_table(
        "ablation_cc_engine",
        "Ablation — congested-clique engine on dense contracted instances "
        "(n'=k+1 super-vertices, complete): rounds",
        ["k", "boruvka", "lotker", "sample_gather"],
        rows,
    )


def test_ablation_rerouting():
    rows = []
    for k in (8, 32):
        for B in (4 * k, 16 * k):
            nets = {}
            for name, fn in (("scheduled", scheduled_broadcasts),
                             ("naive", naive_broadcasts)):
                net = KMachineNetwork(k)
                fn(net, [(0, i, 1) for i in range(B)])
                nets[name] = net.ledger.rounds
            rows.append((k, B, nets["scheduled"], nets["naive"],
                         round(nets["naive"] / nets["scheduled"], 1)))
    emit_table(
        "ablation_rerouting",
        "Ablation — Rerouting Lemma vs naive broadcasting under skew",
        ["k", "B", "scheduled", "naive", "naive/scheduled"],
        rows,
    )
    assert all(r[4] >= 2 for r in rows)


def test_ablation_decomposition():
    """Lemma 6.3 decomposition vs per-edge addition processing."""
    rows = []
    for k in (8, 16, 32):
        rng = np.random.default_rng(k)
        g = random_weighted_graph(300, 600, rng)
        batched = DynamicMST.build(g, k, rng=rng, init="free")
        naive = DynamicMST.build(g, k, rng=rng, init="free")
        b_costs, n_costs = [], []
        for batch in growing_stream(g, k, 3, rng):
            b_costs.append(batched.apply_batch(batch).rounds)
            n_costs.append(naive.apply_one_at_a_time(batch).rounds)
        rows.append((k, round(float(np.mean(b_costs))),
                     round(float(np.mean(n_costs))),
                     round(float(np.mean(n_costs)) / float(np.mean(b_costs)), 1)))
    emit_table(
        "ablation_decomposition",
        "Ablation — Lemma 6.3 path decomposition vs per-edge addition "
        "processing (rounds per size-k insertion batch)",
        ["k", "decomposed", "per_edge", "ratio"],
        rows,
    )
    assert rows[-1][3] > 1.5  # the decomposition pays off at larger k
