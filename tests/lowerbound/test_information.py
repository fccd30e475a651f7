"""Bit-flow metering of the lower-bound experiment."""

import numpy as np

from repro.graphs import random_weighted_graph
from repro.lowerbound import run_lower_bound_experiment


class TestMeter:
    def test_measurements_recorded(self, rng):
        g = random_weighted_graph(40, 250, rng)
        meter = run_lower_bound_experiment(g, k=4, delta=1.0, rng=rng, pairs=3)
        assert len(meter.rounds_per_batch) == len(meter.u_ingress_per_batch)
        assert len(meter.hard_batches) == 3
        assert meter.total_rounds > 0

    def test_hard_batches_carry_bits_into_u(self, rng):
        """The entropy argument: re-learning the instance forces ingress
        at u's machine on every hard batch."""
        g = random_weighted_graph(40, 250, rng)
        meter = run_lower_bound_experiment(g, k=4, delta=1.0, rng=rng, pairs=4)
        assert all(w > 0 for w in meter.hard_u_ingress)
        assert np.mean(meter.hard_u_ingress) >= meter.b  # Ω(b) words

    def test_summary_string(self, rng):
        g = random_weighted_graph(40, 250, rng)
        meter = run_lower_bound_experiment(g, k=4, delta=0.5, rng=rng, pairs=2)
        s = meter.summary()
        assert "total_rounds" in s and "u-ingress" in s

    def test_larger_delta_costs_more_per_hard_batch(self):
        """ω(k) separation: growing batch sizes (δ up) grows per-batch
        work faster than k."""
        rng = np.random.default_rng(7)
        g = random_weighted_graph(120, 2500, rng)
        small = run_lower_bound_experiment(g, k=4, delta=0.5, rng=0, pairs=3)
        big = run_lower_bound_experiment(g, k=4, delta=2.0, rng=0, pairs=3)
        assert np.mean(big.hard_rounds) > np.mean(small.hard_rounds)
        assert big.b > small.b


class TestOmegaKSeparation:
    def test_total_rounds_superlinear_vs_benign(self):
        """Theorem 7.1's statement: 3k adversarial batches cost ω(k)·O(1)
        — concretely, far more than 3k benign size-k batches."""
        from repro.core import DynamicMST
        from repro.graphs import churn_stream

        rng = np.random.default_rng(11)
        g = random_weighted_graph(120, 2500, rng)
        k = 4
        # Benign: 3k batches of size k.
        dm = DynamicMST.build(g, k, rng=0, init="free")
        benign = sum(
            dm.apply_batch(b).rounds
            for b in churn_stream(dm.shadow.copy(), k, 3 * k, rng=rng)
        )
        # Adversarial: the Theorem 7.1 sequence with delta = 1.5.
        meter = run_lower_bound_experiment(g, k=k, delta=1.5, rng=0, pairs=k)
        assert meter.total_rounds > 1.5 * benign
