"""T8.1 — MPC: S updates in O(1) rounds; init in O(log n) rounds.

Series: init rounds vs n (logarithmic) and batch rounds vs batch size up
to S (flat; bandwidth scales with space, not machine count).
"""

import numpy as np

from _tables import emit_table
from repro.graphs import churn_stream, random_weighted_graph
from repro.mpc import MPCDynamicMST


def _mpc_init_costs(n, k, seed=0):
    """Rounds, messages and words of the measured init (the whole ledger
    of a fresh build)."""
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = MPCDynamicMST.build(g, k, rng=rng)
    ledger = dm.net.ledger
    assert ledger.rounds == dm.init_rounds
    return dm.init_rounds, ledger.messages, ledger.words


def _mpc_batch_rounds(n, k, b, seed=0, n_batches=4):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = MPCDynamicMST.build(g, k, rng=rng, init="free")
    costs = [
        dm.apply_batch(batch).rounds
        for batch in churn_stream(dm.shadow.copy(), b, n_batches, rng=rng)
        if batch
    ]
    return float(np.mean(costs))


def test_mpc_round_table():
    # Messages and words ride along so that a wider message on the init
    # wire (not only an extra superstep) moves this table.
    init_rows = [(n, 8, *_mpc_init_costs(n, 8)) for n in (128, 256, 512, 1024)]
    emit_table(
        "theorem_8_1_mpc_init",
        "Theorem 8.1 — MPC initialisation rounds (claim: O(log n), not O(n/S))",
        ["n", "k", "init_rounds", "init_messages", "init_words"],
        init_rows,
    )
    batch_rows = [
        (400, 8, b, round(_mpc_batch_rounds(400, 8, b), 1)) for b in (4, 16, 64)
    ]
    emit_table(
        "theorem_8_1_mpc_batches",
        "Theorem 8.1 — MPC batch rounds (claim: flat up to S updates/batch)",
        ["n", "k", "batch", "mean_rounds"],
        batch_rows,
    )
    # log-ish init: 8x n, far less than 8x rounds.
    assert init_rows[-1][2] <= 3 * init_rows[0][2]
    # near-flat batches up to S (S ~ 4m/k = 600 here).
    assert batch_rows[-1][3] <= 3 * batch_rows[0][3]
