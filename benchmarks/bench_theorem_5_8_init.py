"""T5.8 — MST construction + Euler init in O(n/k + log n) rounds.

Series: init rounds vs n at fixed k (linear), vs k at fixed n (inverse);
plus the fast-vs-reference init wall-clock table in the same schema as
``fast_path_speedup`` in ``bench_throughput.py``, digest-checked.
"""

import time

import numpy as np

from _tables import emit_table
from repro.core import DynamicMST
from repro.graphs import random_weighted_graph


def _init_rounds(n, k, seed=0):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="distributed")
    return dm.init_rounds


def _fast_vs_reference_init(n, k, seed=0):
    """Same build on both engines; returns (ref_s, fast_s, digest)."""
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng)
    wall = []
    digests = []
    for backend in ("reference", "inproc-columnar"):
        t0 = time.perf_counter()
        dm = DynamicMST.build(g, k, rng=np.random.default_rng(seed),
                              init="distributed", backend=backend)
        wall.append(time.perf_counter() - t0)
        dm.check()
        digests.append(dm.net.ledger.digest())
    assert digests[0] == digests[1], "fast init charged a different ledger"
    return wall[0], wall[1], digests[0]


def test_init_round_table():
    rows = []
    for n, k in ((128, 8), (256, 8), (512, 8), (1024, 8), (512, 4), (512, 16), (512, 32)):
        r = _init_rounds(n, k)
        rows.append((n, k, n // k, r, round(r / (n / k), 2)))
    emit_table(
        "theorem_5_8_init",
        "Theorem 5.8 — initialisation rounds (claim: O(n/k + log n))",
        ["n", "k", "n/k", "rounds", "rounds_per_(n/k)"],
        rows,
    )
    # Linear in n at fixed k; inverse in k at fixed n.
    per_unit = [r[4] for r in rows]
    assert max(per_unit) <= 3 * min(per_unit)


def test_init_fast_path_table():
    """Columnar init vs scalar reference, byte-identical ledgers.

    Same reference/fast/speedup/digest columns as ``fast_path_speedup``,
    so EXPERIMENTS.md can cite init and update speedups side by side.
    """
    rows = []
    for name, n, k in (("small", 512, 8), ("medium", 1024, 8), ("large", 2048, 16)):
        ref_s, fast_s, digest = _fast_vs_reference_init(n, k)
        rows.append((name, n, k, round(ref_s, 3), round(fast_s, 3),
                     round(ref_s / max(fast_s, 1e-9), 2), digest[:12]))
    emit_table(
        "theorem_5_8_init_fast",
        "Theorem 5.8 init — columnar fast path vs scalar reference "
        "(identical ledger digests)",
        ["scenario", "n", "k", "reference_s", "fast_s", "speedup_x",
         "ledger_digest"],
        rows,
    )
    # The vectorized scan must win clearly once n is non-trivial.
    assert rows[-1][5] >= 2.0, rows
