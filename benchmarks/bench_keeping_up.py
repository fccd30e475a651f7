"""The title question: how fast can you update your MST?

Sweeps the stream arrival rate (updates per communication round) against
the batch-dynamic maintainer through the streaming ingestor
(:mod:`repro.stream.ingest`, one tick per round).  Arrivals queue
uncoalesced and every cut ships at most ``batch_capacity`` = k of them,
so the cluster absorbs Θ(k) updates per O(1) rounds (Theorem 6.1).  Below
that ceiling the queue drains soon after the last arrival; above it the
cluster falls behind linearly and the drain lag grows with the horizon.
The ceiling rises with k (more machines = more stream).
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import random_weighted_graph, uniform_arrival_stream


def _run(rate, k, n=200, seed=0, n_ticks=10_000):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    stream = uniform_arrival_stream(g, rate, n_ticks, rng=rng)
    return stream, dm.ingest(stream, coalesce=False)


def test_keeping_up_table():
    rows = []
    for k in (8, 32):
        for rate in (0.02, 0.05, 0.1, 0.2, 0.4):
            stream, rep = _run(rate, k)
            # Ticks from the last arrival until the queue is empty.
            lag = rep.elapsed_ticks - stream.horizon
            rows.append(
                (k, rate, rep.admitted, rep.cuts, rep.peak_queue_depth,
                 rep.p99_ticks, lag,
                 "DIVERGES" if lag > stream.horizon / 10 else "keeps up")
            )
    emit_table(
        "keeping_up",
        "Can the cluster keep up?  Queue vs stream rate (updates per round; "
        "at most k updates per cut, ceiling = Θ(k) per O(1) rounds)",
        ["k", "rate", "arrivals", "cuts", "peak_queue", "p99_staleness",
         "drain_lag", "verdict"],
        rows,
    )
    by = {(r[0], r[1]): r[-1] for r in rows}
    assert by[(8, 0.02)] == "keeps up"
    assert by[(8, 0.4)] == "DIVERGES"
    # More machines push the ceiling up: a rate that sinks k=8 is
    # sustainable at k=32.
    k8_diverge_rates = [r for (kk, r), v in by.items() if kk == 8 and v == "DIVERGES"]
    assert any(by[(32, r)] == "keeps up" for r in k8_diverge_rates), by
