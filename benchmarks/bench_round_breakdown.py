"""Where do the rounds go?  Per-phase breakdown of the batch protocols.

Uses the ledger's nested phase attribution to decompose the cost of a
size-k addition batch and a size-k deletion batch into their protocol
steps — the engineering view behind the O(1) claims.
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import growing_stream, random_weighted_graph, shrinking_stream


def _phase_profile(kind, n=400, k=16, seed=0, n_batches=4):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    stream_fn = growing_stream if kind == "add" else shrinking_stream
    for batch in stream_fn(dm.shadow.copy(), k, n_batches, rng):
        dm.apply_batch(batch)
    phases = {
        name: stats.rounds / n_batches
        for name, stats in dm.net.ledger.phases.items()
        if name.startswith(kind)
    }
    return phases


def test_round_breakdown_table():
    rows = []
    for kind in ("add", "del"):
        phases = _phase_profile(kind)
        total = sum(phases.values())
        for name in sorted(phases):
            rows.append(
                (kind, name.split(".", 1)[1], round(phases[name], 1),
                 f"{100 * phases[name] / total:.0f}%")
            )
        rows.append((kind, "TOTAL", round(total, 1), "100%"))
    emit_table(
        "round_breakdown",
        "Per-phase rounds of one size-k batch (k=16, n=400, mean of 4)",
        ["batch kind", "phase", "rounds", "share"],
        rows,
    )
    # The structural update (Lemma 5.9) must not dominate asymptotically
    # differently from the rest — all phases are O(1) at b = k.
    assert all(r[2] < 400 for r in rows)
