"""The CONGESTED CLIQUE as a standalone model (k = n machines)."""

import pytest

from repro.cclique.model import CongestedClique
from repro.errors import ModelViolation
from repro.graphs import WeightedGraph, kruskal_msf, random_weighted_graph
from repro.graphs.mst import msf_key_multiset


class TestCongestedCliqueModel:
    def test_static_mst(self, rng):
        g = random_weighted_graph(12, 30, rng)
        cc = CongestedClique(g)
        got = cc.mst(rng=rng)
        assert msf_key_multiset(got) == msf_key_multiset(kruskal_msf(g))
        assert cc.ledger.rounds > 0

    def test_requires_contiguous_vertices(self):
        g = WeightedGraph([5, 9])
        with pytest.raises(ModelViolation):
            CongestedClique(g)

    @pytest.mark.parametrize("engine", ["boruvka", "lotker", "sample_gather"])
    def test_all_engines(self, engine, rng):
        g = random_weighted_graph(10, 25, rng)
        cc = CongestedClique(g)
        got = cc.mst(engine=engine, rng=rng)
        assert msf_key_multiset(got) == msf_key_multiset(kruskal_msf(g))
