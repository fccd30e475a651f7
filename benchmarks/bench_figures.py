"""Regenerate the paper's figures as data (Figures 1-4).

Each figure is a worked example, not a measurement; we rebuild the
structure it illustrates and emit the same annotations.
"""

from _tables import emit_table
from repro.core.decomposition import AnchorInfo, build_paths, in_m_prime
from repro.euler import BracketComponents, EulerForest
from repro.graphs import Edge


def test_figure_1_euler_tour():
    """Figure 1: an Euler tour over an MST rooted at r, edge labels."""
    edges = [
        Edge(0, 1, 0.1), Edge(0, 2, 0.2), Edge(1, 3, 0.3),
        Edge(1, 4, 0.4), Edge(2, 5, 0.5),
    ]
    ef = EulerForest.build(range(6), edges)
    tid = ef.tour_of[0]
    rows = [
        (f"({e.u},{e.v})", e.e_min, e.e_max,
         f"{e.tail_at(e.e_min)}->{e.head_at(e.e_min)}")
        for e in sorted(ef.tour_edges(tid), key=lambda e: e.e_min)
    ]
    emit_table(
        "figure_1_euler_tour",
        "Figure 1 — Euler tour labels over the example MST (root r = 0)",
        ["edge", "e_in", "e_out", "first_traversal"],
        rows,
    )
    assert [r[1] for r in rows] == sorted(r[1] for r in rows)


def test_figures_2_3_decomposition():
    """Figures 2-3: M -> M' -> M'' with sets A and B.

    The instance: an MST path with a branching vertex, three new edges;
    the decomposition keeps one removable edge per path and the shaded
    branch vertex lands in B.
    """
    #       0 - 1 - 2 - 3 - 4      (MST path, (2,19)-style heavy middle)
    #               |
    #               5 - 6          (branch below 2)
    edges = [
        Edge(0, 1, 1.0), Edge(1, 2, 19.0), Edge(2, 3, 2.0), Edge(3, 4, 2.5),
        Edge(2, 5, 1.2), Edge(5, 6, 1.4),
    ]
    ef = EulerForest.build(range(7), edges)
    tid = ef.tour_of[0]
    new_edges = [(0, 4, 3.0), (0, 6, 3.5), (4, 6, 4.0)]
    a_vertices = sorted({x for e in new_edges for x in e[:2]})
    size = ef.tour_size[tid]
    anchors, entries = [], []
    for a in a_vertices:
        inc = [e for e in ef.tour_edges(tid) if a in (e.u, e.v)]
        p = min(inc, key=lambda e: e.e_min)
        interval = p.labels() if p.head_at(p.e_min) == a else (-1, size)
        anchors.append(AnchorInfo(a, tid, interval))
        entries.append(interval[0])
    m_prime = [
        (e.u, e.v) for e in ef.tour_edges(tid) if in_m_prime(e.labels(), entries)
    ]
    b_vertices = []
    for x in range(7):
        if x in a_vertices:
            continue
        deg = sum(
            1 for e in ef.tour_edges(tid)
            if x in (e.u, e.v) and in_m_prime(e.labels(), entries)
        )
        if deg >= 3:
            b_vertices.append(x)
            inc = [e for e in ef.tour_edges(tid) if x in (e.u, e.v)]
            p = min(inc, key=lambda e: e.e_min)
            interval = p.labels() if p.head_at(p.e_min) == x else (-1, size)
            anchors.append(AnchorInfo(x, tid, interval))
    paths = build_paths(anchors, {tid: sorted(entries)})
    rows = [
        ("A", str(a_vertices)),
        ("B (shaded vertex)", str(b_vertices)),
        ("M' edges", str(sorted(m_prime))),
        ("path sets (M'' edges)", str(sorted(f"{p.child.vertex}-{p.parent.vertex}" for p in paths))),
    ]
    emit_table(
        "figures_2_3_decomposition",
        "Figures 2-3 — decomposition of the example: M -> M' -> M''",
        ["item", "value"],
        rows,
    )
    assert b_vertices == [2]  # the branching (shaded) vertex
    assert len(paths) <= len(anchors)


def test_figure_4_brackets():
    """Figure 4: deleted-edge label pairs as brackets -> components."""
    bc = BracketComponents([(2, 11), (4, 7), (13, 16)], size=18)
    rows = []
    for lbl in range(18):
        try:
            rows.append((lbl, bc.component_of_label(lbl)))
        except Exception:
            rows.append((lbl, "deleted"))
    emit_table(
        "figure_4_brackets",
        "Figure 4 — component of every Euler label after 3 deletions "
        "(components in Euler-tour order)",
        ["label", "component"],
        rows,
    )
    assert bc.n_components == 4
