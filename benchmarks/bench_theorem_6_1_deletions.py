"""T6.1 (deletions) — k deletions in O(1) rounds w.h.p.

Series: rounds per batch vs k for each congested-clique engine (the
DESIGN.md substitution: sample_gather should be flattest).
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import random_weighted_graph, shrinking_stream


def _mean_del_batch_rounds(n, k, b, engine, seed=0, n_batches=4):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free", engine=engine)
    costs = [
        dm.apply_batch(batch).rounds
        for batch in shrinking_stream(dm.shadow.copy(), b, n_batches, rng)
        if batch
    ]
    return float(np.mean(costs))


def test_deletion_round_table():
    rows = []
    for k in (4, 8, 16, 32):
        row = [k]
        for engine in ("boruvka", "lotker", "sample_gather"):
            row.append(round(_mean_del_batch_rounds(400, k, k, engine), 1))
        rows.append(row)
    emit_table(
        "theorem_6_1_deletions",
        "Theorem 6.1 (deletions) — rounds per size-k batch by engine "
        "(claim: O(1) w.h.p.; JN substituted per DESIGN.md)",
        ["k", "boruvka", "lotker", "sample_gather"],
        rows,
    )
    sg = {r[0]: r[3] for r in rows}
    assert sg[32] <= 1.6 * sg[8]
