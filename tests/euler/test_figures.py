"""Regeneration of the paper's worked examples (Figures 1 and 4).

Figure 1 shows an Euler tour over an 8-vertex MST rooted at r; Figure 4
shows bracket matching turning deleted-edge labels into components.  We
rebuild equivalent instances and assert the structural facts the figures
illustrate.  (Figures 2-3 are covered in tests/core/test_decomposition.py.)
"""

from repro.euler import BracketComponents, EulerForest, check_valid_tour
from repro.graphs import Edge


class TestFigure1:
    """An Euler tour over an MST, rooted at r: labels 0..2(n-1)-1, each
    edge visited exactly twice, parent edges carry min/max labels."""

    def setup_method(self):
        # A small tree shaped like the figure: root with two subtrees.
        #        r(0)
        #       /    \
        #      u(1)   a(2)
        #     /  \      \
        #   v(3) w(4)   b(5)
        edges = [
            Edge(0, 1, 0.1), Edge(0, 2, 0.2), Edge(1, 3, 0.3),
            Edge(1, 4, 0.4), Edge(2, 5, 0.5),
        ]
        self.ef = EulerForest.build(range(6), edges)
        self.tid = self.ef.tour_of[0]

    def test_tour_is_cycle_of_2n_minus_2_steps(self):
        assert self.ef.tour_size[self.tid] == 10
        assert check_valid_tour(self.ef.tour_edges(self.tid), 10)

    def test_each_edge_visited_twice(self):
        labels = [l for e in self.ef.tour_edges(self.tid) for l in (e.t_uv, e.t_vu)]
        assert sorted(labels) == list(range(10))

    def test_parent_edge_carries_min_and_max_incident_labels(self):
        # Lemma 5.3, what the figure's (u, v) annotation illustrates.
        for v in range(1, 6):
            p = self.ef.parent_edge(v)
            incident = [e for e in self.ef.tour_edges(self.tid) if v in (e.u, e.v)]
            lmin = min(min(e.t_uv, e.t_vu) for e in incident)
            lmax = max(max(e.t_uv, e.t_vu) for e in incident)
            assert p.e_min == lmin
            assert max(p.t_uv, p.t_vu) == lmax

    def test_reroot_to_v_makes_v_the_start(self):
        self.ef.reroot(3)
        assert self.ef.root(self.ef.tour_of[3]) == 3


class TestFigure4:
    """Figure 4: deleting edges with label pairs, e.g. brackets
    ( [ ] ... ) nesting determines components in Euler-tour order."""

    def test_worked_example(self):
        # A tour of size 14 with deleted edges labelled (2, 13)?? sizes
        # must nest inside [0, 14): choose (2, 11) containing (4, 7).
        bc = BracketComponents([(2, 11), (4, 7)], size=14)
        assert bc.n_components == 3
        # Outermost region (the root's component) is labelled 0.
        assert bc.component_of_label(0) == 0
        assert bc.component_of_label(12) == 0
        # Between the outer and inner bracket: component 1.
        assert bc.component_of_label(3) == 1
        assert bc.component_of_label(9) == 1
        # Strictly inside the inner bracket: component 2.
        assert bc.component_of_label(5) == 2

    def test_boundary_value_needs_direction(self):
        """A witness that IS a deleted edge resolves by direction: the
        endpoint the in-traversal enters lies inside (the figure's
        'eg. 13' caveat)."""
        from repro.euler.tour import ETEdge

        cut = ETEdge(7, 8, 1.0, t_uv=2, t_vu=11, tour=0)
        bc = BracketComponents([(2, 11)], size=14)
        # in-traversal (label 2) heads toward vertex 8 => 8 is inside.
        assert bc.component_of_vertex(cut, 8) == 1
        assert bc.component_of_vertex(cut, 7) == 0
