"""Unit and property tests for the disjoint-set union."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DisjointSet


class TestDisjointSet:
    def test_lazy_singletons(self):
        d = DisjointSet()
        assert d.find("x") == "x"
        assert d.n_components == 1

    def test_union_merges(self):
        d = DisjointSet(range(4))
        assert d.union(0, 1)
        assert not d.union(1, 0)
        assert d.connected(0, 1)
        assert not d.connected(0, 2)
        assert d.n_components == 3

    def test_component_size(self):
        d = DisjointSet(range(5))
        d.union(0, 1)
        d.union(1, 2)
        assert d.component_size(2) == 3
        assert d.component_size(4) == 1

    def test_components_partition(self):
        d = DisjointSet(range(6))
        d.union(0, 1)
        d.union(2, 3)
        comps = sorted(sorted(c) for c in d.components())
        assert comps == [[0, 1], [2, 3], [4], [5]]

    def test_roots(self):
        d = DisjointSet(range(3))
        d.union(0, 2)
        roots = set(d.roots())
        assert len(roots) == 2
        assert d.find(1) in roots and d.find(0) in roots

    def test_len_and_contains(self):
        d = DisjointSet([1, 2])
        assert len(d) == 2 and 1 in d and 7 not in d


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=120))
@settings(max_examples=60, deadline=None)
def test_dsu_matches_naive_partition(unions):
    """Property: DSU connectivity equals transitive closure of the unions."""
    d = DisjointSet(range(31))
    naive = {i: {i} for i in range(31)}
    for a, b in unions:
        d.union(a, b)
        if naive[a] is not naive[b]:
            merged = naive[a] | naive[b]
            for x in merged:
                naive[x] = merged
    for a in range(0, 31, 5):
        for b in range(0, 31, 7):
            assert d.connected(a, b) == (b in naive[a])
    assert d.n_components == len({id(s) for s in naive.values()})
