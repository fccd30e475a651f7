"""Lemma 6.3 path decomposition: pure-function tests + Figures 2-3.

The decomposition is also validated end-to-end (against the sequential
oracle) in test_batch_addition.py; here we test its combinatorial claims
directly on explicit instances.
"""

import numpy as np
import pytest

from repro.core.decomposition import (
    AnchorInfo,
    PathSet,
    build_paths,
    in_m_prime,
    solve_contracted,
)
from repro.euler import EulerForest
from repro.graphs import Edge, random_forest, random_tree
from repro.graphs.validation import path_in_forest


def _anchors_for(ef, tid, a_vertices):
    """Build AnchorInfo + A-entry lists the way the protocol does."""
    size = ef.tour_size[tid]
    anchors, entries = [], []
    for a in a_vertices:
        inc = [e for e in ef.tour_edges(tid) if a in (e.u, e.v)]
        if inc:
            p = min(inc, key=lambda e: e.e_min)
            interval = p.labels() if p.head_at(p.e_min) == a else (-1, size)
        else:
            interval = (-1, size)
        anchors.append(AnchorInfo(a, tid, interval))
        entries.append(interval[0])
    return anchors, entries


def _b_anchors(ef, tid, a_vertices, entries):
    """B as the protocol finds it: the non-A vertices of M'-degree >= 3."""
    b = []
    for x in sorted(ef.vertices_of_tour(tid) - set(a_vertices)):
        inc = [e for e in ef.tour_edges(tid) if x in (e.u, e.v)]
        if sum(1 for e in inc if in_m_prime(e.labels(), entries)) >= 3:
            b.extend(_anchors_for(ef, tid, [x])[0])
    return b


def _build_paths_quadratic(anchors, a_entries_by_tour):
    """``build_paths`` by its first definition: every anchor scans its
    whole tour group for the smallest interval enclosing its own."""
    by_tour = {}
    for a in anchors:
        by_tour.setdefault(a.tour, []).append(a)
    paths = []
    for tour in sorted(by_tour):
        group = sorted(by_tour[tour], key=lambda a: (a.interval[0], -a.interval[1]))
        a_entries = a_entries_by_tour.get(tour, [])
        top_level = []
        for child in group:
            best = None
            for cand in group:
                if cand.vertex == child.vertex:
                    continue
                lo, hi = cand.interval
                if lo <= child.interval[0] and child.interval[1] <= hi:
                    if best is None or (lo, -hi) > (best.interval[0], -best.interval[1]):
                        best = cand
            if best is None:
                top_level.append(child)
                continue
            if not child.is_root and in_m_prime(child.interval, a_entries):
                paths.append(PathSet(tour, "chain", child, best))
        live_top = [
            c for c in top_level if not c.is_root and in_m_prime(c.interval, a_entries)
        ]
        if len(live_top) == 2:
            c1, c2 = sorted(live_top, key=lambda a: a.interval[0])
            paths.append(PathSet(tour, "pair", c1, c2))
        elif len(live_top) > 2:
            raise AssertionError("more than 2 top-level M'-anchors")
    return paths


class TestInMPrime:
    """M' = the Steiner tree of A: verified against explicit paths."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_union_of_pairwise_paths(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 16))
        t = random_tree(n, rng)
        ef = EulerForest.build(t.vertices(), t.edges())
        tid = ef.tour_of[0]
        n_a = int(rng.integers(2, min(n, 5) + 1))
        a_vertices = sorted(int(x) for x in rng.choice(n, size=n_a, replace=False))
        anchors, entries = _anchors_for(ef, tid, a_vertices)
        edges = [e.as_edge() for e in ef.tour_edges(tid)]
        truth = set()
        for i in range(n_a):
            for j in range(i + 1, n_a):
                for e in path_in_forest(edges, a_vertices[i], a_vertices[j]):
                    truth.add(e.endpoints)
        for ete in ef.tour_edges(tid):
            got = in_m_prime(ete.labels(), entries)
            assert got == ((ete.u, ete.v) in truth), (a_vertices, ete)


class TestBuildPaths:
    """The O(k) disjoint path sets of Lemma 6.3."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sets_partition_m_prime(self, seed):
        rng = np.random.default_rng(seed + 1000)
        n = int(rng.integers(3, 18))
        t = random_tree(n, rng)
        ef = EulerForest.build(t.vertices(), t.edges())
        tid = ef.tour_of[0]
        n_a = int(rng.integers(2, min(n, 6) + 1))
        a_vertices = sorted(int(x) for x in rng.choice(n, size=n_a, replace=False))
        anchors, entries = _anchors_for(ef, tid, a_vertices)

        b_anchors = _b_anchors(ef, tid, a_vertices, entries)
        paths = build_paths(anchors + b_anchors, {tid: sorted(entries)})
        # O(k) bound: at most |A| + |B| path sets.
        assert len(paths) <= len(anchors) + len(b_anchors)
        # Partition: every M' edge in exactly one set, others in none.
        for ete in ef.tour_edges(tid):
            hits = [
                p for p in paths if p.contains_edge(ete.labels(), sorted(entries))
            ]
            if in_m_prime(ete.labels(), entries):
                assert len(hits) == 1, (a_vertices, ete, hits)
            else:
                assert not hits

    @pytest.mark.parametrize("seed", range(30))
    def test_sweep_equals_the_quadratic_scan(self, seed):
        """On random forests, with random A sets (each tour's root in
        half of them) plus the protocol's B sets."""
        rng = np.random.default_rng(seed + 2000)
        n = int(rng.integers(2, 40))
        f = random_forest(n, int(rng.integers(1, max(2, n // 5))), rng)
        ef = EulerForest.build(f.vertices(), f.edges())
        anchors, entries = [], {}
        for tid in sorted(set(ef.tour_of.values())):
            members = sorted(ef.vertices_of_tour(tid))
            size = int(rng.integers(0, len(members) + 1))
            picked = {int(x) for x in rng.choice(members, size=size, replace=False)}
            if rng.random() < 0.5:
                picked.add(ef.root(tid))
            a_anchors, a_entries = _anchors_for(ef, tid, sorted(picked))
            anchors += a_anchors + _b_anchors(ef, tid, picked, a_entries)
            entries[tid] = sorted(a_entries)
        assert build_paths(anchors, entries) == _build_paths_quadratic(anchors, entries)

    def test_three_top_level_m_prime_anchors_raise(self):
        anchors = [AnchorInfo(x, 0, (2 * x + 1, 2 * x + 2)) for x in range(3)]
        with pytest.raises(AssertionError, match="3 top-level"):
            build_paths(anchors, {0: [1, 3, 5]})

    def test_two_anchor_bend(self):
        """A = two leaves of a star: one 'pair' set through the centre."""
        #    1 - 0 - 2 , A = {1, 2}; the centre 0 is a degree-2 bend.
        t_edges = [Edge(0, 1, 0.1), Edge(0, 2, 0.2)]
        ef = EulerForest.build(range(3), t_edges)
        tid = ef.tour_of[0]
        anchors, entries = _anchors_for(ef, tid, [1, 2])
        paths = build_paths(anchors, {tid: sorted(entries)})
        assert len(paths) == 1 and paths[0].kind == "pair"
        for ete in ef.tour_edges(tid):
            assert paths[0].contains_edge(ete.labels(), sorted(entries))

    def test_junction_in_b(self):
        """Three anchors meeting at a degree-3 Steiner junction: the
        junction is in B and all three arms are chain sets (Figure 3's
        shaded vertex is exactly such a B-vertex)."""
        # Star centre 0 with leaves 1, 2, 3; A = {1, 2, 3}.
        t_edges = [Edge(0, 1, 0.1), Edge(0, 2, 0.2), Edge(0, 3, 0.3)]
        ef = EulerForest.build(range(4), t_edges)
        tid = ef.tour_of[0]
        anchors, entries = _anchors_for(ef, tid, [1, 2, 3])
        # Protocol-side B detection.
        deg0 = sum(
            1
            for e in ef.tour_edges(tid)
            if 0 in (e.u, e.v) and in_m_prime(e.labels(), entries)
        )
        assert deg0 == 3  # the centre is in B
        size = ef.tour_size[tid]
        inc = [e for e in ef.tour_edges(tid) if 0 in (e.u, e.v)]
        p = min(inc, key=lambda e: e.e_min)
        interval = p.labels() if p.head_at(p.e_min) == 0 else (-1, size)
        b_anchor = AnchorInfo(0, tid, interval)
        paths = build_paths(anchors + [b_anchor], {tid: sorted(entries)})
        assert len(paths) == 3
        assert all(p.kind == "chain" for p in paths)


class TestSolveContracted:
    def test_new_edge_displaces_path_max(self):
        # One path set with max weight 5; a lighter new edge wins.
        a = AnchorInfo(0, 0, (0, 9))
        b = AnchorInfo(1, 0, (2, 5))
        p = PathSet(0, "chain", b, a)
        decision = solve_contracted(
            [p], {p.query_id: ((5.0, 7, 8), 7, 8)}, [(0, 1, 1.0)]
        )
        assert decision.cuts == [(7, 8)]
        assert decision.links == [(0, 1, 1.0)]
        assert not decision.rejected

    def test_heavy_new_edge_rejected(self):
        a = AnchorInfo(0, 0, (0, 9))
        b = AnchorInfo(1, 0, (2, 5))
        p = PathSet(0, "chain", b, a)
        decision = solve_contracted(
            [p], {p.query_id: ((5.0, 7, 8), 7, 8)}, [(0, 1, 9.0)]
        )
        assert not decision.cuts and not decision.links
        assert decision.rejected == [(0, 1, 9.0)]

    def test_cross_tour_edge_always_links(self):
        decision = solve_contracted([], {}, [(0, 5, 3.0)])
        assert decision.links == [(0, 5, 3.0)]

    def test_parallel_new_edges_pick_lighter(self):
        decision = solve_contracted([], {}, [(0, 5, 3.0), (0, 5, 2.0)])
        assert decision.links == [(0, 5, 2.0)]
        assert decision.rejected == [(0, 5, 3.0)]

    def test_missing_answer_raises(self):
        a = AnchorInfo(0, 0, (0, 9))
        b = AnchorInfo(1, 0, (2, 5))
        p = PathSet(0, "chain", b, a)
        with pytest.raises(ValueError):
            solve_contracted([p], {}, [])


class TestFigures2And3:
    """Figure 2/3 narrative: new edges induce cycles; irrelevant edges
    are dropped; the contraction keeps one removable edge per path."""

    def test_path_with_three_edges_one_removable(self):
        # MST path 0-1-2-3 plus a new edge (0, 3): one path set, exactly
        # one (max) edge may leave — 'amongst the three edges in path 1,
        # only one of the three can be deleted'.
        edges = [Edge(0, 1, 1.0), Edge(1, 2, 5.0), Edge(2, 3, 2.0)]
        ef = EulerForest.build(range(4), edges)
        tid = ef.tour_of[0]
        anchors, entries = _anchors_for(ef, tid, [0, 3])
        paths = build_paths(anchors, {tid: sorted(entries)})
        assert len(paths) == 1
        members = [
            e for e in ef.tour_edges(tid)
            if paths[0].contains_edge(e.labels(), sorted(entries))
        ]
        assert len(members) == 3
        heaviest = max(members, key=lambda e: e.key)
        decision = solve_contracted(
            paths,
            {paths[0].query_id: (heaviest.key, heaviest.u, heaviest.v)},
            [(0, 3, 3.0)],
        )
        assert decision.cuts == [(1, 2)]
        assert decision.links == [(0, 3, 3.0)]
