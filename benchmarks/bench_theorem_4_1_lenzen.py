"""T4.1 — Lenzen routing and sorting run in O(1) rounds.

Series: rounds vs k at full load (k messages/keys per machine).  The
claim holds if the curve flattens; wall-clock tracks simulator throughput.
"""

import numpy as np

from _tables import emit_table
from repro.comm import lenzen_route, lenzen_sort
from repro.sim import KMachineNetwork, Message


def _route_rounds(k, seed=0):
    net = KMachineNetwork(k)
    msgs = [
        Message(s, (s + j + 1) % k, (s, j), 1)
        for s in range(k)
        for j in range(k - 1)
    ]
    lenzen_route(net, msgs)
    return net.ledger.rounds


def _sort_rounds(k, seed=0):
    net = KMachineNetwork(k)
    rng = np.random.default_rng(seed)
    items = [[float(x) for x in rng.random(k)] for _ in range(k)]
    lenzen_sort(net, items)
    return net.ledger.rounds


def test_lenzen_round_table():
    ks = [4, 8, 16, 32, 64, 128]
    rows = [(k, _route_rounds(k), _sort_rounds(k)) for k in ks]
    emit_table(
        "theorem_4_1_lenzen",
        "Theorem 4.1 — Lenzen routing/sorting rounds at full load (claim: O(1))",
        ["k", "route_rounds", "sort_rounds"],
        rows,
    )
    # O(1) claim: 32x more machines, bounded round growth.
    assert rows[-1][1] <= 2 * rows[1][1] + 8
    assert rows[-1][2] <= 2 * rows[1][2] + 8
