"""The paper's quantitative claims, asserted as measured shapes."""

import numpy as np

from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph


def _mean_batch_rounds(n, m, k, batch, seed=0, n_batches=5):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, m, rng)
    dm = DynamicMST.build(g, k, rng=rng, init="free")
    costs = [
        dm.apply_batch(b).rounds
        for b in churn_stream(dm.shadow.copy(), batch, n_batches, rng=rng)
        if b
    ]
    return float(np.mean(costs))


class TestTheorem61:
    def test_batch_of_k_flat_in_k(self):
        """k updates in O(1) rounds: growing k does not grow the cost."""
        r16 = _mean_batch_rounds(400, 1600, 16, 16)
        r64 = _mean_batch_rounds(400, 1600, 64, 64)
        assert r64 <= 1.4 * r16

    def test_per_update_cost_drops_with_batching(self):
        k = 16
        single = _mean_batch_rounds(300, 900, k, 1)
        batched = _mean_batch_rounds(300, 900, k, k) / k
        assert batched < single / 2.5

    def test_oversized_batches_linear_in_b_over_k(self):
        """Beyond b = k the cost grows ~linearly in b/k (bandwidth bound)."""
        k = 8
        r1 = _mean_batch_rounds(400, 1600, k, k)
        r4 = _mean_batch_rounds(400, 1600, k, 4 * k)
        r8 = _mean_batch_rounds(400, 1600, k, 8 * k)
        assert r4 > 1.5 * r1
        assert r8 > 1.3 * r4

    def test_rounds_independent_of_n(self):
        """Update cost must not scale with graph size (that is the whole
        point of not recomputing)."""
        small = _mean_batch_rounds(100, 300, 8, 8)
        large = _mean_batch_rounds(1000, 3000, 8, 8)
        assert large <= 1.6 * small
