"""L5.9 — k structural MST updates apply in O(1) rounds.

Series: rounds for a batch of b cuts (or links) vs b at fixed k, and vs
k at b = k.
"""

import numpy as np

from _tables import emit_table
from repro.core.init_build import free_init, make_states
from repro.core.scripts import run_structural_batch
from repro.graphs import random_tree
from repro.sim import KMachineNetwork, random_vertex_partition


def _cut_batch_rounds(n, k, b, seed=0):
    rng = np.random.default_rng(seed)
    g = random_tree(n, rng)
    net = KMachineNetwork(k)
    vp = random_vertex_partition(sorted(g.vertices()), k, rng)
    states, tid = make_states(g, vp, net)
    _, tid = free_init(g, vp, states, tid)
    edges = sorted((e.u, e.v) for e in g.edges())[:b]
    before = net.ledger.rounds
    run_structural_batch(net, vp, states, cuts=edges, links=[], next_tour_id=tid)
    return net.ledger.rounds - before


def test_kway_merge_round_table():
    rows = []
    for k, b in ((16, 1), (16, 4), (16, 16), (4, 4), (8, 8), (32, 32), (64, 64)):
        rows.append((k, b, _cut_batch_rounds(256, k, b)))
    emit_table(
        "lemma_5_9_kway",
        "Lemma 5.9 — rounds for b structural updates (claim: O(b/k + 1))",
        ["k", "b", "rounds"],
        rows,
    )
    at_bk = {r[0]: r[2] for r in rows if r[0] == r[1]}
    assert at_bk[64] <= 2 * at_bk[4] + 10  # flat at b = k
