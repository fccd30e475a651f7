"""Property tests for the bipartite edge colouring inside Lenzen routing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.lenzen import _bipartite_edge_coloring


def _check(pairs, colours):
    by_s, by_d = {}, {}
    for (s, d), c in zip(pairs, colours):
        assert c >= 0
        assert c not in by_s.setdefault(s, set()), "source conflict"
        assert c not in by_d.setdefault(d, set()), "destination conflict"
        by_s[s].add(c)
        by_d[d].add(c)


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=150))
@settings(max_examples=80, deadline=None)
def test_proper_colouring(pairs):
    colours = _bipartite_edge_coloring(pairs)
    _check(pairs, colours)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=120))
@settings(max_examples=60, deadline=None)
def test_koenig_bound(pairs):
    """König: at most Δ colours are used."""
    if not pairs:
        return
    colours = _bipartite_edge_coloring(pairs)
    deg = {}
    for (s, d) in pairs:
        deg[("s", s)] = deg.get(("s", s), 0) + 1
        deg[("d", d)] = deg.get(("d", d), 0) + 1
    assert max(colours) + 1 <= max(deg.values())


def test_parallel_edges():
    pairs = [(0, 1)] * 6
    colours = _bipartite_edge_coloring(pairs)
    assert sorted(colours) == list(range(6))


def test_permutation_needs_one_colour():
    pairs = [(i, (i + 3) % 7) for i in range(7)]
    colours = _bipartite_edge_coloring(pairs)
    assert set(colours) == {0}
