"""Validators: forests, spanning, cycle-property certificates."""

from repro.graphs import (
    Edge,
    WeightedGraph,
    is_forest,
    is_spanning_forest,
    kruskal_msf,
    random_weighted_graph,
    verify_msf_cycle_property,
    verify_msf_exact,
)
from repro.graphs.validation import connected_components, path_in_forest


class TestIsForest:
    def test_acyclic(self):
        assert is_forest([Edge(0, 1, 1), Edge(1, 2, 1)])

    def test_cycle_detected(self):
        assert not is_forest([Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1)])


class TestSpanning:
    def test_true_msf(self, rng):
        g = random_weighted_graph(15, 40, rng)
        assert is_spanning_forest(g, kruskal_msf(g))

    def test_missing_span_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        assert not is_spanning_forest(g, [Edge(0, 1, 1.0)])

    def test_foreign_edge_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        assert not is_spanning_forest(g, [Edge(0, 1, 9.0)])


class TestCycleProperty:
    def test_accepts_optimal(self, rng):
        g = random_weighted_graph(12, 30, rng)
        assert verify_msf_cycle_property(g, kruskal_msf(g))

    def test_rejects_suboptimal_spanning_tree(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        bad = [Edge(1, 2, 2.0), Edge(0, 2, 3.0)]  # spanning but not minimal
        assert is_spanning_forest(g, bad)
        assert not verify_msf_cycle_property(g, bad)

    def test_exact_agrees(self, rng):
        g = random_weighted_graph(12, 30, rng)
        msf = kruskal_msf(g)
        assert verify_msf_exact(g, msf)
        assert not verify_msf_exact(g, list(msf)[:-1])


class TestHelpers:
    def test_path_in_forest(self):
        edges = [Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1)]
        path = path_in_forest(edges, 0, 3)
        assert [e.endpoints for e in path] == [(0, 1), (1, 2), (2, 3)]
        assert path_in_forest(edges, 0, 0) == []
        assert path_in_forest(edges, 0, 9) is None

    def test_connected_components(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)], vertices=[4])
        comps = sorted(sorted(c) for c in connected_components(g))
        assert comps == [[0, 1], [2, 3], [4]]
