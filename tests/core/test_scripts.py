"""The Lemma 5.9 structural-script engine, checked against the oracle."""

import numpy as np
import pytest

from repro.core.checker import check_global_consistency
from repro.core.init_build import free_init, make_states
from repro.core.scripts import run_structural_batch
from repro.errors import ProtocolError
from repro.graphs import WeightedGraph, random_tree
from repro.sim import KMachineNetwork, random_vertex_partition


def _setup(graph, k, seed=0, fast=None):
    rng = np.random.default_rng(seed)
    net = KMachineNetwork(k, fast=fast)
    vp = random_vertex_partition(sorted(graph.vertices()), k, rng)
    states, tid = make_states(graph, vp, net)
    _, tid = free_init(graph, vp, states, tid)
    return net, vp, states, tid


class TestSingleOps:
    def test_one_link(self):
        g = WeightedGraph.from_edges([(0, 1, 0.1), (2, 3, 0.2)])
        g.add_edge(1, 2, 0.5)
        # Start the structure WITHOUT (1,2) in the MSF: cheat by removing
        # it from the forest then relinking through the script.
        net, vp, states, tid = _setup(g, 3)
        tid = run_structural_batch(net, vp, states, cuts=[(1, 2)], links=[], next_tour_id=tid)
        tid = run_structural_batch(net, vp, states, cuts=[], links=[(1, 2, 0.5)], next_tour_id=tid)
        check_global_consistency(states, g, vp)

    def test_cut_isolating_leaf(self):
        g = WeightedGraph.from_edges([(0, 1, 0.1)])
        net, vp, states, tid = _setup(g, 2)
        g2 = g.copy()
        g2.remove_edge(0, 1)
        # Mirror the graph change locally, then cut.
        for st in states:
            st.drop_graph_edge(0, 1)
        run_structural_batch(net, vp, states, cuts=[(0, 1)], links=[], next_tour_id=tid)
        check_global_consistency(states, g2, vp)

    def test_cut_requires_mst_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.9)])
        net, vp, states, tid = _setup(g, 2)
        with pytest.raises(ProtocolError):
            run_structural_batch(net, vp, states, cuts=[(0, 2)], links=[], next_tour_id=tid)

    def test_link_cycle_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 0.1), (1, 2, 0.2)])
        g.add_edge(0, 2, 0.9)
        net, vp, states, tid = _setup(g, 2)
        # (0,2) is a non-MST graph edge; linking it would close a cycle.
        with pytest.raises(ProtocolError):
            run_structural_batch(net, vp, states, cuts=[], links=[(0, 2, 0.9)], next_tour_id=tid)


class TestBatchedOps:
    @pytest.mark.parametrize("seed", range(6))
    def test_cut_all_then_relink_all(self, seed):
        """Tear an entire random spanning tree down and rebuild it in two
        scripts — the maximal dependency-chain stress for the cascade."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 18))
        g = random_tree(n, rng)
        k = int(rng.integers(2, 6))
        net, vp, states, tid = _setup(g, k, seed)
        edges = sorted((e.u, e.v) for e in g.edges())
        links = [(u, v, g.weight(u, v)) for (u, v) in edges]
        # Shadow for the torn-down state: no edges.
        empty = WeightedGraph(g.vertices())
        for st in states:
            for (u, v) in edges:
                st.drop_graph_edge(u, v)
        tid = run_structural_batch(net, vp, states, cuts=edges, links=[], next_tour_id=tid)
        check_global_consistency(states, empty, vp)
        for st in states:
            for (u, v, w) in links:
                if u in st.vertices or v in st.vertices:
                    st.store_graph_edge(u, v, w)
        tid = run_structural_batch(net, vp, states, cuts=[], links=links, next_tour_id=tid)
        check_global_consistency(states, g, vp)

    def test_rounds_scale_with_batch_over_k(self):
        """Lemma 5.9: k structural updates in O(1) rounds."""
        rng = np.random.default_rng(0)
        rounds = {}
        for k in (4, 16):
            g = random_tree(64, 1)
            net, vp, states, tid = _setup(g, k, 1)
            edges = sorted((e.u, e.v) for e in g.edges())[:16]
            before = net.ledger.rounds
            run_structural_batch(net, vp, states, cuts=edges, links=[], next_tour_id=tid)
            rounds[k] = net.ledger.rounds - before
        assert rounds[16] < rounds[4]


class TestWitnessRepair:
    def test_all_witnesses_fresh_after_cut_storm(self):
        rng = np.random.default_rng(7)
        g = random_tree(20, rng)
        net, vp, states, tid = _setup(g, 4, 7)
        edges = sorted((e.u, e.v) for e in g.edges())
        victim = edges[::3]
        g2 = g.copy()
        for (u, v) in victim:
            g2.remove_edge(u, v)
            for st in states:
                st.drop_graph_edge(u, v)
        run_structural_batch(net, vp, states, cuts=victim, links=[], next_tour_id=tid)
        check_global_consistency(states, g2, vp)  # includes witness checks


@pytest.mark.parametrize("fast", [False, True], ids=["reference", "columnar"])
class TestCorruptStateRaises:
    """Both engines reject the same corruptions with the same exception.

    Path 0-1-2-3-4 is one tour rooted at 0, where edge (i, i+1) has labels
    (i, 7 - i); every case cuts (1, 2), whose labels are (1, 6).
    """

    @staticmethod
    def _path(fast):
        g = WeightedGraph.from_edges([(i, i + 1, 0.1 * (i + 1)) for i in range(4)])
        return _setup(g, 2, 0, fast)

    @staticmethod
    def _relabel(states, key, t_uv, t_vu):
        for st in states:
            e = st.pop_mst_edge(*key)
            if e is not None:
                e.t_uv, e.t_vu = t_uv, t_vu
                st.add_mst_edge(e)

    def test_label_of_the_cut_edge_elsewhere(self, fast):
        net, vp, states, tid = self._path(fast)
        self._relabel(states, (3, 4), 6, 4)
        with pytest.raises(ValueError):
            run_structural_batch(net, vp, states, cuts=[(1, 2)], links=[], next_tour_id=tid)

    def test_edge_straddling_the_cut(self, fast):
        net, vp, states, tid = self._path(fast)
        self._relabel(states, (3, 4), 3, 7)
        with pytest.raises(ProtocolError, match="straddles"):
            run_structural_batch(net, vp, states, cuts=[(1, 2)], links=[], next_tour_id=tid)

    def test_owned_vertex_without_mst_edge_in_split_tour(self, fast):
        net, vp, states, tid = self._path(fast)
        home = states[vp.home(4)]
        home.pop_mst_edge(3, 4)
        home.set_witness(4, None)
        with pytest.raises(ProtocolError, match="no incident MST edge"):
            run_structural_batch(net, vp, states, cuts=[(1, 2)], links=[], next_tour_id=tid)
