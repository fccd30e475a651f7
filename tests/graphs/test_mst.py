"""Reference MST engines: agreement, optimality, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    WeightedGraph,
    boruvka_msf,
    kruskal_msf,
    local_msf,
    msf_weight,
    prim_msf,
    random_weighted_graph,
    verify_msf_cycle_property,
)
from repro.graphs.graph import Edge


def _random_graph(seed, n_max=24):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max))
    m = int(rng.integers(0, n * (n - 1) // 2 + 1))
    return random_weighted_graph(n, m, rng, connected=False)


class TestEnginesAgree:
    @pytest.mark.parametrize("seed", range(12))
    def test_three_engines_identical(self, seed):
        g = _random_graph(seed)
        a, b, c = kruskal_msf(g), prim_msf(g), boruvka_msf(g)
        assert a == b == c

    def test_empty_graph(self):
        g = WeightedGraph(range(5))
        assert kruskal_msf(g) == prim_msf(g) == boruvka_msf(g) == set()

    def test_single_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 0.5)])
        assert kruskal_msf(g) == {Edge(0, 1, 0.5)}

    def test_tie_break_deterministic(self):
        # Triangle with identical weights: the (u, v) order decides.
        g = WeightedGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        assert kruskal_msf(g) == {Edge(0, 1, 1.0), Edge(0, 2, 1.0)}
        assert prim_msf(g) == boruvka_msf(g) == kruskal_msf(g)


class TestOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_cycle_property_certificate(self, seed):
        g = _random_graph(seed)
        assert verify_msf_cycle_property(g, kruskal_msf(g))

    def test_forest_spans_components(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)], vertices=[4])
        msf = kruskal_msf(g)
        assert len(msf) == 2


class TestLocalMsf:
    def test_prunes_cycles(self):
        edges = [Edge(0, 1, 1.0), Edge(1, 2, 2.0), Edge(0, 2, 3.0)]
        kept = local_msf(edges)
        assert Edge(0, 2, 3.0) not in kept and len(kept) == 2

    def test_sorted_output(self):
        edges = [Edge(3, 4, 0.9), Edge(0, 1, 0.1)]
        assert local_msf(edges)[0] == Edge(0, 1, 0.1)


def test_msf_weight():
    assert msf_weight([Edge(0, 1, 1.5), Edge(1, 2, 2.5)]) == pytest.approx(4.0)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_msf_weight_minimal_among_spanning_trees(seed):
    """Property: on small connected graphs, the MSF beats brute force."""
    import itertools

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = random_weighted_graph(n, min(n * (n - 1) // 2, n + 2), rng)
    msf = kruskal_msf(g)
    best = msf_weight(msf)
    edges = list(g.edges())
    from repro.graphs import DisjointSet

    for combo in itertools.combinations(edges, n - 1):
        d = DisjointSet(range(n))
        if all(d.union(e.u, e.v) for e in combo):
            assert msf_weight(combo) >= best - 1e-12
