"""Workload sensitivity: per-batch rounds across realistic trace shapes.

Theorem 6.1's O(1) guarantee is worst-case over batches of size ≤ k;
this bench confirms the constant barely moves across structured
workloads (hotspots, cascades, flash crowds, rolling partitions) — the
round cost depends on batch size, not churn structure.
"""

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph
from repro.graphs.traces import (
    cascade_stream,
    flash_crowd_stream,
    hotspot_stream,
    rolling_partition_stream,
)


def _mean_rounds(stream_fn, n=300, k=12, seed=0):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    costs, sizes = [], []
    for batch in stream_fn(g, rng):
        if batch:
            costs.append(dm.apply_batch(batch).rounds)
            sizes.append(len(batch))
    dm.check()
    return float(np.mean(costs)), float(np.mean(sizes))


WORKLOADS = {
    "uniform_churn": lambda g, rng: churn_stream(g, 12, 5, rng=rng),
    "hotspot": lambda g, rng: hotspot_stream(g, 12, 5, rng=rng),
    "cascade": lambda g, rng: cascade_stream(g, 2, 10, rng=rng),
    "flash_crowd": lambda g, rng: flash_crowd_stream(g, 3, 12, 3, rng=rng),
    "rolling_partition": lambda g, rng: rolling_partition_stream(g, 12, 5, rng=rng),
}


def test_workload_sensitivity_table():
    rows = []
    for name in sorted(WORKLOADS):
        mean_rounds, mean_size = _mean_rounds(WORKLOADS[name])
        rows.append((name, round(mean_size, 1), round(mean_rounds),
                     round(mean_rounds / max(mean_size, 1), 1)))
    emit_table(
        "workload_sensitivity",
        "Rounds per batch across workload shapes (n=300, k=12)",
        ["workload", "mean_batch_size", "mean_rounds", "rounds_per_update"],
        rows,
    )
    per_update = [r[3] for r in rows]
    assert max(per_update) <= 8 * min(per_update)
