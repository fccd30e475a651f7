"""AGM sketches: L0-sampler linearity, edge recovery, connectivity."""

import numpy as np
import pytest

from repro.cclique import SketchConnectivity
from repro.cclique.sketches import L0Sampler, vertex_sketches
from repro.graphs import random_weighted_graph
from repro.graphs.validation import connected_components


class TestL0Sampler:
    def test_single_coordinate(self):
        s = L0Sampler(100, seed=1)
        s.update(42, 1)
        assert s.sample() == (42, 1)

    def test_cancellation(self):
        s = L0Sampler(100, seed=1)
        s.update(42, 1)
        s.update(42, -1)
        assert s.sample() is None

    def test_negative_sign(self):
        s = L0Sampler(100, seed=3)
        s.update(7, -1)
        assert s.sample() == (7, -1)

    def test_merge_linearity(self):
        a = L0Sampler(100, seed=5)
        b = L0Sampler(100, seed=5)
        a.update(10, 1)
        b.update(10, -1)
        b.update(20, 1)
        a.merge(b)
        assert a.sample() == (20, 1)

    def test_merge_seed_mismatch(self):
        a, b = L0Sampler(10, 1), L0Sampler(10, 2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_out_of_universe(self):
        s = L0Sampler(10, 1)
        with pytest.raises(ValueError):
            s.update(10, 1)

    def test_recovery_rate_reasonable(self):
        """A sampler over a few random nonzeros recovers one most of the time."""
        rng = np.random.default_rng(0)
        hits = 0
        for trial in range(50):
            s = L0Sampler(500, seed=int(rng.integers(0, 2**60)))
            support = rng.choice(500, size=5, replace=False)
            for i in support:
                s.update(int(i), 1)
            got = s.sample()
            if got is not None:
                assert got[0] in set(int(x) for x in support)
                hits += 1
        assert hits >= 25  # constant success probability per sketch


class TestAGMSketch:
    def test_component_sum_samples_outgoing_edge(self):
        g = random_weighted_graph(10, 15, 3)
        sketches = vertex_sketches(g, 10, seed=7)
        # Sum over a connected pair {u, v}: the (u, v) edge cancels.
        e = next(iter(g.edges()))
        su, sv = sketches[e.u], sketches[e.v]
        su.merge(sv)
        got = su.sample_edge()
        if got is not None:
            a, b = got
            assert g.has_edge(a, b)
            assert (set(got) & {e.u, e.v}) and not set(got) <= {e.u, e.v}


class TestSketchConnectivity:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dsu_components(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = random_weighted_graph(n, m, rng, connected=False)
        sc = SketchConnectivity(g, rng=rng)
        got = sorted(sorted(c) for c in sc.components().components())
        want = sorted(sorted(c) for c in connected_components(g))
        assert got == want

    def test_words_per_vertex_polylog(self):
        g = random_weighted_graph(64, 128, 0)
        sc = SketchConnectivity(g, rng=0)
        sc.components()
        # Each sketch is O(log^2 n) words; the family count is O(log n).
        assert sc.words_per_vertex() < 64 * 40
