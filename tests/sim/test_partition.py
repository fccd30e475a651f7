"""Vertex and edge partitions."""

import pytest

from repro.graphs import random_weighted_graph
from repro.sim import (
    VertexPartition,
    lexicographic_edge_partition,
    random_vertex_partition,
)
from repro.sim.partition import round_robin_vertex_partition


class TestVertexPartition:
    def test_random_covers_all(self, rng):
        vp = random_vertex_partition(range(50), 4, rng)
        assert sorted(v for vs in vp.vertices_of for v in vs) == list(range(50))
        assert all(0 <= vp.home(v) < 4 for v in range(50))

    def test_edge_machines(self):
        vp = VertexPartition(3, {0: 0, 1: 1, 2: 1})
        assert vp.edge_machines(0, 1) == (0, 1)
        assert vp.edge_machines(1, 2) == (1,)

    def test_round_robin(self):
        vp = round_robin_vertex_partition(range(6), 3)
        assert vp.home(4) == 1

    def test_add_vertex(self):
        vp = VertexPartition(2, {0: 0})
        vp.add_vertex(5, 1)
        assert vp.home(5) == 1
        with pytest.raises(ValueError):
            vp.add_vertex(5, 0)


class TestEdgePartition:
    def test_contiguous_vertex_ranges(self, rng):
        g = random_weighted_graph(20, 50, rng)
        ep = lexicographic_edge_partition(g, 5)
        total_slots = sum(len(s) for s in ep.slots_of)
        assert total_slots == 2 * g.m  # both directed copies
        for v in g.vertices():
            machines = ep.machines_of_vertex(v)
            assert machines == sorted(machines)
            assert machines == list(range(machines[0], machines[-1] + 1))

    def test_leader_is_first_machine(self, rng):
        g = random_weighted_graph(20, 50, rng)
        ep = lexicographic_edge_partition(g, 5)
        for v in g.vertices():
            if v in ep.vertex_range:
                assert ep.leader[v] == ep.vertex_range[v][0]

    def test_isolated_vertices_get_leaders(self):
        from repro.graphs import WeightedGraph

        g = WeightedGraph(range(7))
        g.add_edge(0, 1, 0.1)
        ep = lexicographic_edge_partition(g, 3)
        assert all(v in ep.leader for v in range(7))

    def test_space_cap_respected(self, rng):
        g = random_weighted_graph(20, 60, rng)
        ep = lexicographic_edge_partition(g, 6, space=25)
        assert all(len(s) <= 25 for s in ep.slots_of[:-1])
