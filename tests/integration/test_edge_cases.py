"""Model edge cases: k=1, k>n, empty graphs, complete graphs, ties."""

from repro.core import DynamicMST
from repro.graphs import (
    Update,
    WeightedGraph,
    churn_stream,
    complete_graph,
    random_weighted_graph,
)
from repro.graphs.mst import msf_key_multiset, kruskal_msf
from repro.mpc import MPCDynamicMST


class TestSingleMachine:
    def test_k1_everything_local(self, rng):
        g = random_weighted_graph(15, 40, rng)
        dm = DynamicMST.build(g, 1, rng=rng, init="free")
        for batch in churn_stream(g, 4, 4, rng=rng):
            rep = dm.apply_batch(batch)
            assert rep.rounds == 0  # one machine never communicates
        dm.check()

    def test_k1_distributed_init(self, rng):
        g = random_weighted_graph(12, 25, rng)
        dm = DynamicMST.build(g, 1, rng=rng, init="distributed")
        dm.check()
        assert dm.init_rounds == 0


class TestMoreMachinesThanVertices:
    def test_k_exceeds_n(self, rng):
        g = random_weighted_graph(6, 10, rng)
        dm = DynamicMST.build(g, 16, rng=rng, init="free")
        for batch in churn_stream(g, 3, 4, rng=rng):
            dm.apply_batch(batch)
        dm.check()


class TestDegenerateGraphs:
    def test_empty_graph_lifecycle(self, rng):
        """Edgeless -> connected -> edgeless again."""
        g = WeightedGraph(range(12))
        dm = DynamicMST.build(g, 4, rng=rng, init="distributed")
        adds = [Update.add(i, i + 1, float(rng.random())) for i in range(11)]
        dm.apply_batch(adds)
        dm.check()
        assert dm.component_count() == 1
        dm.apply_batch([Update.delete(u.u, u.v) for u in adds])
        dm.check()
        assert dm.component_count() == 12 and not dm.msf_edges()

    def test_complete_graph_heavy_deletions(self, rng):
        g = complete_graph(12, rng)
        dm = DynamicMST.build(g, 4, rng=rng, init="free")
        # Delete the whole current MST in one batch, twice.
        for _ in range(2):
            victims = sorted(dm.msf_edges())
            dm.apply_batch([Update.delete(e.u, e.v) for e in victims])
            dm.check()
            assert dm.component_count() == 1  # complete graph reconnects

    def test_two_vertices(self, rng):
        g = WeightedGraph(range(2))
        dm = DynamicMST.build(g, 2, rng=rng, init="free")
        dm.apply_batch([Update.add(0, 1, 0.5)])
        assert dm.in_mst(0, 1)
        dm.apply_batch([Update.delete(0, 1)])
        dm.check()


class TestTieBreaking:
    def test_all_equal_weights(self, rng):
        """Every weight identical: the lexicographic order decides, and
        every engine and model must agree on the same forest."""
        g = WeightedGraph(range(10))
        for u in range(10):
            for v in range(u + 1, 10):
                if (u * v + u + v) % 3 != 0:
                    g.add_edge(u, v, 1.0)
        for engine in ("boruvka", "lotker", "sample_gather"):
            dm = DynamicMST.build(g, 4, rng=0, engine=engine, init="free")
            victims = sorted(dm.msf_edges())[:3]
            dm.apply_batch([Update.delete(e.u, e.v) for e in victims])
            dm.check()
            assert msf_key_multiset(dm.msf_edges()) == msf_key_multiset(
                kruskal_msf(dm.shadow)
            )

    def test_equal_weights_mpc_agrees(self, rng):
        g = WeightedGraph(range(8))
        for u in range(8):
            for v in range(u + 1, 8):
                g.add_edge(u, v, 2.5)
        km = DynamicMST.build(g, 3, rng=1, init="free")
        mp = MPCDynamicMST.build(g, 3, rng=1, init="free")
        assert msf_key_multiset(km.msf_edges()) == msf_key_multiset(mp.msf_edges())


class TestNegativeWeights:
    def test_negative_weights_supported(self, rng):
        g = WeightedGraph.from_edges(
            [(0, 1, -5.0), (1, 2, 3.0), (0, 2, -1.0), (2, 3, 0.0)]
        )
        dm = DynamicMST.build(g, 3, rng=rng, init="free")
        dm.check()
        assert dm.in_mst(0, 1) and dm.in_mst(0, 2)
        dm.apply_batch([Update.add(1, 3, -9.0)])
        dm.check()
        assert dm.in_mst(1, 3)
