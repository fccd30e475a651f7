"""T7.1 — batches of size k^(1+δ) force ω(k) total rounds.

Series: per-hard-batch rounds and u-machine ingress vs δ; the entropy
bound Ω(b) words is printed next to the measurement.
"""

import numpy as np

from _tables import emit_table
from repro.graphs import random_weighted_graph
from repro.lowerbound import run_lower_bound_experiment


def test_lower_bound_table():
    rng = np.random.default_rng(0)
    g = random_weighted_graph(150, 4000, rng)
    rows = []
    for delta in (0.5, 1.0, 1.5, 2.0):
        meter = run_lower_bound_experiment(g, k=4, delta=delta, rng=0, pairs=3)
        rows.append(
            (4, delta, meter.b,
             round(float(np.mean(meter.hard_rounds)), 1),
             round(float(np.mean(meter.hard_u_ingress)), 1))
        )
    emit_table(
        "theorem_7_1_lowerbound",
        "Theorem 7.1 — adversarial batches of size k^(1+δ): per-hard-batch "
        "cost grows superlinearly vs flat O(1) for size-k batches",
        ["k", "delta", "b=K-2 (entropy bound, words)", "hard_batch_rounds", "u_ingress_words"],
        rows,
    )
    assert rows[-1][3] > rows[0][3]          # bigger δ, more rounds
    assert all(r[4] >= r[2] for r in rows)   # ingress ≥ Ω(b) words
