"""Generators: determinism, structure, and size guarantees."""

import pytest

from repro.graphs import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    gnp_connected_graph,
    grid_graph,
    path_graph,
    powerlaw_graph,
    random_forest,
    random_tree,
    random_weighted_graph,
    star_graph,
)
from repro.graphs.validation import connected_components, is_forest


class TestRandomTree:
    def test_is_spanning_tree(self, rng):
        t = random_tree(20, rng)
        assert t.n == 20 and t.m == 19
        assert is_forest(t.edges())
        assert len(connected_components(t)) == 1

    def test_deterministic_given_seed(self):
        a = random_tree(15, 7)
        b = random_tree(15, 7)
        assert a == b

    def test_tiny(self):
        assert random_tree(0, 1).n == 0
        assert random_tree(1, 1).m == 0


class TestRandomForest:
    @pytest.mark.parametrize("n,t", [(10, 1), (10, 3), (10, 10), (1, 1)])
    def test_component_count(self, n, t, rng):
        f = random_forest(n, t, rng)
        assert f.n == n
        assert len(connected_components(f)) == t
        assert is_forest(f.edges())

    def test_bad_tree_count(self, rng):
        with pytest.raises(ValueError):
            random_forest(5, 6, rng)


class TestRandomWeightedGraph:
    def test_exact_edge_count(self, rng):
        g = random_weighted_graph(12, 30, rng)
        assert (g.n, g.m) == (12, 30)

    def test_connected_by_default(self, rng):
        g = random_weighted_graph(25, 24, rng)
        assert len(connected_components(g)) == 1

    def test_disconnected_allows_sparse(self, rng):
        g = random_weighted_graph(10, 2, rng, connected=False)
        assert g.m == 2

    def test_rejects_impossible(self, rng):
        with pytest.raises(ValueError):
            random_weighted_graph(4, 10, rng)
        with pytest.raises(ValueError):
            random_weighted_graph(10, 3, rng, connected=True)


class TestStructured:
    def test_grid_shape(self, rng):
        g = grid_graph(4, 5, rng)
        assert g.n == 20
        assert g.m == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_path_and_cycle(self, rng):
        p = path_graph(6, rng=rng)
        assert p.m == 5
        c = cycle_graph(6, rng=rng)
        assert c.m == 6

    def test_path_custom_weights(self):
        p = path_graph(3, weights=[0.5, 0.25])
        assert p.weight(0, 1) == 0.5 and p.weight(1, 2) == 0.25

    def test_star_max_degree(self, rng):
        s = star_graph(9, rng=rng)
        assert s.max_degree() == 8 and s.m == 8

    def test_complete(self, rng):
        g = complete_graph(6, rng)
        assert g.m == 15

    def test_caterpillar(self, rng):
        g = caterpillar_graph(4, 2, rng)
        assert g.n == 12 and g.m == 11
        assert is_forest(g.edges())

    def test_powerlaw_connected_and_skewed(self, rng):
        g = powerlaw_graph(100, attach=2, rng=rng)
        assert len(connected_components(g)) == 1
        degs = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        assert degs[0] > degs[len(degs) // 2]  # hubs exist

    def test_gnp_connected(self, rng):
        g = gnp_connected_graph(30, 0.1, rng)
        assert len(connected_components(g)) == 1
