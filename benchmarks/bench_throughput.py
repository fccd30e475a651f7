"""Wall-clock throughput of the simulator (updates/second).

The round counts are the reproduction; this tracks how fast the
simulator itself processes updates, against the single-machine
sequential oracle — the price of simulating k machines faithfully —
and how much the columnar engine (:mod:`repro.perf`) buys over the
scalar reference engine at identical ledgers.  The columnar engine keeps
every machine's Euler state resident in fleet-stacked columns and runs
each Lemma 5.9 step once over all machines, so its per-batch host work
follows the batch; the reference engine loops over each machine's
affected edges and witnesses in Python, per step.
"""

import statistics
import time

import numpy as np

from _tables import emit_table
from repro.baselines import SequentialDynamicMST
from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph

#: Floor on the large scenario's columnar-over-reference speedup.
MIN_SPEEDUP = 3.0
#: Timed runs per engine per scenario; the speedup table reports medians.
REPEATS = 5


def _throughput(n, k, batch, n_batches=6, seed=0):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    stream = list(churn_stream(g, batch, n_batches, rng=rng))
    n_updates = sum(len(b) for b in stream)

    dm = DynamicMST.build(g, k, rng=rng, init="free")
    t0 = time.perf_counter()
    for b in stream:
        dm.apply_batch(b)
    t_dm = time.perf_counter() - t0

    seq = SequentialDynamicMST(g)
    t0 = time.perf_counter()
    for b in stream:
        seq.apply_batch(b)
    t_seq = time.perf_counter() - t0
    return n_updates / max(t_dm, 1e-9), n_updates / max(t_seq, 1e-9)


def test_throughput_table():
    rows = []
    for n, k in ((300, 8), (1000, 8), (1000, 32), (3000, 16)):
        sim_ups, seq_ups = _throughput(n, k, k)
        rows.append((n, k, round(sim_ups), round(seq_ups),
                     round(seq_ups / sim_ups, 1)))
    emit_table(
        "throughput",
        "Simulator throughput: batch-dynamic updates/second (wall clock)",
        ["n", "k", "simulated_cluster_ups", "sequential_oracle_ups",
         "sim_overhead_x"],
        rows,
    )
    assert all(r[2] > 20 for r in rows)  # usable scale for experiments


def _fast_vs_reference(n, k, batch, n_batches, seed=0):
    """Same trajectory on both engines, ``REPEATS`` alternating runs each.

    Returns (median ref_ups, median fast_ups, digest): one run per engine
    sits inside run-to-run noise at the small scenario.
    """
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    stream = list(churn_stream(g.copy(), batch, n_batches, rng=rng))
    n_updates = sum(len(b) for b in stream)

    ups = {"reference": [], "inproc-columnar": []}
    digests = set()
    for _ in range(REPEATS):
        for backend, runs in ups.items():
            dm = DynamicMST.build(g, k, rng=np.random.default_rng(seed),
                                  init="free", backend=backend)
            t0 = time.perf_counter()
            for b in stream:
                dm.apply_batch(b)
            runs.append(n_updates / max(time.perf_counter() - t0, 1e-9))
            dm.check()
            digests.add(dm.net.ledger.digest())
    assert len(digests) == 1, "fast path charged a different ledger"
    return (statistics.median(ups["reference"]),
            statistics.median(ups["inproc-columnar"]), digests.pop())


def test_fast_path_speedup_table():
    """Columnar fast path vs scalar reference at byte-identical ledgers.

    The speedup grows with *steps per structural script* (batch size)
    and with k: a reference step walks every machine's affected rows in
    Python, while the columnar engine composes a script's cuts (or its
    links) into one relabelling, a fixed number of passes over the
    fleet's columns plus work on the few rows the steps name.  The large row
    is the headline: batch 64 must be >= 3x, in the median of
    ``REPEATS`` runs per engine.
    """
    scenarios = (
        ("small", 300, 8, 8, 4),
        ("wide", 1000, 32, 32, 3),
        ("large", 3000, 16, 64, 3),
    )
    rows = []
    speedups = {}
    for name, n, k, batch, n_batches in scenarios:
        ref_ups, fast_ups, digest = _fast_vs_reference(n, k, batch, n_batches)
        speedups[name] = fast_ups / ref_ups
        rows.append((name, n, k, batch, round(ref_ups), round(fast_ups),
                     round(speedups[name], 2), digest[:12]))
    emit_table(
        "fast_path_speedup",
        "Columnar fast path vs scalar reference (identical ledger digests)",
        ["scenario", "n", "k", "batch", "reference_ups", "fast_ups",
         "speedup_x", "ledger_digest"],
        rows,
    )
    assert speedups["large"] >= MIN_SPEEDUP, (
        f"large scenario speedup {speedups['large']:.2f}x < {MIN_SPEEDUP}x")
