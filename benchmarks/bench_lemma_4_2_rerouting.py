"""L4.2 — B broadcasts in R sets complete in O(B/k + R) rounds.

Series: rounds vs B at fixed k (linear in B/k), and scheduled-vs-naive
under worst-case skew (all broadcasts from one machine).
"""

from _tables import emit_table
from repro.comm import naive_broadcasts, scheduled_broadcasts
from repro.sim import KMachineNetwork


def _rounds(strategy, k, B):
    net = KMachineNetwork(k)
    strategy(net, [(0, i, 1) for i in range(B)])
    return net.ledger.rounds


def test_rerouting_round_table():
    k = 16
    rows = []
    for B in (16, 32, 64, 128, 256):
        rows.append((B, B // k, _rounds(scheduled_broadcasts, k, B),
                     _rounds(naive_broadcasts, k, B)))
    emit_table(
        "lemma_4_2_rerouting",
        f"Lemma 4.2 — B skewed broadcasts on k={k} (claim: O(B/k) vs naive Θ(B))",
        ["B", "B/k", "scheduled_rounds", "naive_rounds"],
        rows,
    )
    # Scheduled ~ 2B/k + O(1); naive = B.
    for B, bok, sched, naive in rows:
        assert sched <= 3 * bok + 4
        assert naive == B
