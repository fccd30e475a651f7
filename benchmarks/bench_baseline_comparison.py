"""Cross-engine comparison: batch-dynamic vs one-at-a-time vs recompute.

The headline figure of the reproduction: per-batch rounds for size-k
batches across the three strategies — who wins and by what factor.
"""

import numpy as np

from _tables import emit_table
from repro.baselines import OneAtATimeBaseline, RecomputeBaseline
from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph


def _compare(n, k, seed=0, n_batches=3):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    stream = list(churn_stream(g, k, n_batches, rng=rng))
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    one = OneAtATimeBaseline(g, k, rng=rng)
    rec = RecomputeBaseline(g, k, rng=rng)
    dyn = []
    for batch in stream:
        dyn.append(dm.apply_batch(batch).rounds)
        one.apply_batch(batch)
        rec.apply_batch(batch)
    return (
        float(np.mean(dyn)),
        float(np.mean(one.batch_rounds)),
        float(np.mean(rec.batch_rounds)),
    )


def test_baseline_comparison_table():
    rows = []
    for n, k in ((200, 8), (400, 8), (800, 8), (400, 16), (400, 32)):
        d, o, r = _compare(n, k)
        rows.append((n, k, round(d), round(o), round(r),
                     round(o / d, 1), round(r / d, 1)))
    emit_table(
        "baseline_comparison",
        "Batch-dynamic vs one-at-a-time (Italiano-style) vs full recompute "
        "(Theorem 5.8): mean rounds per size-k batch",
        ["n", "k", "batch_dynamic", "one_at_a_time", "recompute",
         "speedup_vs_single", "speedup_vs_recompute"],
        rows,
    )
    for r in rows:
        assert r[2] < r[3] and r[2] < r[4]  # batch-dynamic wins everywhere
    # The baselines cross each other: one-at-a-time scales with k while
    # recompute scales with n/k — by k=32 recompute is cheaper again,
    # exactly the trade-off the batch algorithm removes.
    # Recompute grows with n; batch-dynamic does not.
    by_n = {r[0]: (r[2], r[4]) for r in rows if r[1] == 8}
    assert by_n[800][1] / by_n[200][1] > 2.0
    assert by_n[800][0] / by_n[200][0] < 1.5
