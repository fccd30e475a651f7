"""§5.4 single-update algorithms (Theorem 5.1)."""

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.errors import InconsistentUpdate
from repro.graphs import WeightedGraph, kruskal_msf, random_weighted_graph
from repro.graphs.mst import msf_key_multiset


def _dm(graph, k=4, seed=0):
    return DynamicMST.build(graph, k, rng=seed, init="free")


class TestSingleAdd:
    def test_join_two_components(self):
        g = WeightedGraph.from_edges([(0, 1, 0.1), (2, 3, 0.2)])
        dm = _dm(g)
        dm.add_edge(1, 2, 0.5)
        dm.check()
        assert dm.in_mst(1, 2)

    def test_light_edge_displaces_heaviest_on_cycle(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 9.0), (2, 3, 2.0)])
        dm = _dm(g)
        dm.add_edge(0, 3, 3.0)
        dm.check()
        assert dm.in_mst(0, 3) and not dm.in_mst(1, 2)

    def test_heavy_edge_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        dm = _dm(g)
        dm.add_edge(0, 2, 9.0)
        dm.check()
        assert not dm.in_mst(0, 2)

    def test_duplicate_add_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        dm = _dm(g)
        with pytest.raises(InconsistentUpdate):
            dm.add_edge(0, 1, 2.0)

    def test_add_to_isolated_vertex(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 0.5)
        dm = _dm(g)
        dm.add_edge(1, 2, 0.7)
        dm.check()
        assert dm.in_mst(1, 2)


class TestSingleDelete:
    def test_non_mst_edge_cheap(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 9.0)])
        dm = _dm(g)
        before = dm.rounds
        dm.delete_edge(0, 2)
        dm.check()
        assert dm.rounds - before <= 12  # one broadcast + bookkeeping

    def test_mst_edge_replaced_by_lightest_crosser(self):
        g = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 9.0), (2, 3, 3.0)]
        )
        dm = _dm(g)
        dm.delete_edge(0, 1)
        dm.check()
        assert dm.in_mst(0, 2)

    def test_bridge_deletion_disconnects(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        dm = _dm(g)
        dm.delete_edge(0, 1)
        dm.check()
        assert len(dm.msf_edges()) == 1

    def test_missing_edge_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        dm = _dm(g)
        with pytest.raises(InconsistentUpdate):
            dm.delete_edge(0, 2)


class TestTheorem51Shape:
    def test_per_update_rounds_constant_in_n(self):
        """O(1) rounds per update regardless of graph size."""
        rng = np.random.default_rng(1)
        costs = {}
        for n in (64, 512):
            g = random_weighted_graph(n, 3 * n, rng)
            dm = DynamicMST.build(g, 8, rng=rng, init="free")
            from repro.graphs import churn_stream

            s = churn_stream(dm.shadow.copy(), 1, 12, rng=rng)
            per = [dm.apply_one_at_a_time(b).rounds for b in s if b]
            dm.check()
            costs[n] = float(np.mean(per))
        assert costs[512] <= 1.6 * costs[64]

    @pytest.mark.parametrize("seed", range(4))
    def test_long_random_single_update_sequence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        g = random_weighted_graph(n, 2 * n, rng)
        dm = DynamicMST.build(g, 3, rng=rng, init="free")
        from repro.graphs import churn_stream

        for batch in churn_stream(dm.shadow.copy(), 1, 25, rng=rng):
            if batch:
                dm.apply_one_at_a_time(batch)
        dm.check()
        assert msf_key_multiset(dm.msf_edges()) == msf_key_multiset(
            kruskal_msf(dm.shadow)
        )
