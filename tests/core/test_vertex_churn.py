"""Dynamic vertex set (an API extension beyond the paper)."""

import pytest

from repro.core import DynamicMST
from repro.errors import InconsistentUpdate
from repro.graphs import Update, WeightedGraph, random_weighted_graph


def _dm(graph, k=4, seed=0):
    return DynamicMST.build(graph, k, rng=seed, init="free")


class TestAddVertex:
    def test_new_vertex_usable(self, rng):
        g = random_weighted_graph(10, 20, rng)
        dm = _dm(g)
        dm.add_vertex(100)
        dm.check()
        assert not dm.connected(0, 100)
        dm.apply_batch([Update.add(0, 100, 0.5)])
        dm.check()
        assert dm.connected(0, 100)

    def test_duplicate_rejected(self, rng):
        dm = _dm(random_weighted_graph(5, 6, rng))
        with pytest.raises(InconsistentUpdate):
            dm.add_vertex(0)

    def test_many_vertices_then_build_tree(self):
        dm = _dm(WeightedGraph(range(3)), seed=1)
        for x in range(3, 10):
            dm.add_vertex(x)
        batch = [Update.add(i, i + 1, 0.1 * i + 0.01) for i in range(9)]
        dm.apply_batch(batch)
        dm.check()
        assert dm.component_count() == 1


class TestRemoveVertex:
    def test_removes_incident_edges(self, rng):
        g = random_weighted_graph(12, 30, rng)
        dm = _dm(g, seed=2)
        victim = max(g.vertices(), key=g.degree)
        dm.remove_vertex(victim)
        dm.check()
        assert not dm.shadow.has_vertex(victim)

    def test_isolated_vertex_cheap(self):
        dm = _dm(WeightedGraph(range(4)), seed=3)
        rep = dm.remove_vertex(2)
        assert rep.rounds == 0
        dm.check()

    def test_missing_rejected(self, rng):
        dm = _dm(random_weighted_graph(5, 6, rng))
        with pytest.raises(InconsistentUpdate):
            dm.remove_vertex(77)

    def test_roundtrip_add_remove(self, rng):
        g = random_weighted_graph(10, 20, rng)
        dm = _dm(g, seed=4)
        dm.add_vertex(50)
        dm.apply_batch([Update.add(3, 50, 0.2), Update.add(7, 50, 0.3)])
        dm.check()
        dm.remove_vertex(50)
        dm.check()
        assert not dm.shadow.has_vertex(50)
