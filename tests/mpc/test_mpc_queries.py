"""Distributed queries and engines over the MPC cost model."""

import pytest

from repro.graphs import WeightedGraph, random_weighted_graph, shrinking_stream
from repro.mpc import MPCDynamicMST


class TestQueriesOverMPC:
    def test_connectivity(self, rng):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        dm = MPCDynamicMST.build(g, 2, rng=rng, init="free")
        assert dm.connected(0, 1) and not dm.connected(1, 2)

    def test_bottleneck(self, rng):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 9.0), (2, 3, 2.0)])
        dm = MPCDynamicMST.build(g, 2, rng=rng, init="free")
        assert dm.bottleneck_edge(0, 3) == (9.0, 1, 2)

    def test_aggregates(self, rng):
        g = random_weighted_graph(20, 40, rng)
        dm = MPCDynamicMST.build(g, 4, rng=rng, init="free")
        assert dm.distributed_weight() == pytest.approx(dm.total_weight())
        assert dm.component_count() == 1


class TestMPCEngines:
    @pytest.mark.parametrize("engine", ["boruvka", "lotker", "sample_gather"])
    def test_deletions_each_engine(self, engine, rng):
        g = random_weighted_graph(20, 60, rng)
        dm = MPCDynamicMST.build(g, 4, rng=rng, init="free", engine=engine)
        for batch in shrinking_stream(g, 4, 3, rng=rng):
            if batch:
                dm.apply_batch(batch)
                dm.check()
