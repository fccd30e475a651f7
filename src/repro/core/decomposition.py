"""Path decomposition for batch additions (Lemma 6.3, Figures 2–3).

Pure functions over broadcast-shaped data, so the distributed protocol
and the tests share one implementation.

Definitions (per affected tour t):

* ``A_t`` — endpoints of new edges lying in t; every vertex is described
  by its *parent interval* I(x) = (p_in, p_out) of its parent edge
  (Lemma 5.3), with the sentinel (-1, size) for the tour root, so that
  interval containment is uniform;
* M' — the Steiner tree of A_t inside the MST: edge e ∈ M' iff the count
  of A_t-vertices *below* e satisfies 1 ≤ cnt ≤ |A_t| - 1, where
  "a below e" ⟺ p_in(a) ∈ [e_in, e_out];
* ``B_t`` — vertices with ≥ 3 incident M' edges (computed by their home
  machines, who hold all their edges);
* anchors = A_t ∪ B_t.  Their intervals nest; the nesting forest almost
  equals the induced tree T of the lemma, with one wrinkle: the *topmost
  junction* of the Steiner tree may have exactly two branches and no M'
  edge above it — a "bend" that is in neither A nor B.  Such a bend shows
  up as *two* top-level anchors whose parent edges are both in M'; they
  contribute a single two-arm path set.

Each :class:`PathSet` is one of the lemma's O(k) disjoint sets; at most
its maximum-key edge may be cut.  :func:`solve_contracted` runs Kruskal
on the contracted instance M'' (path sets weighted by their maxima, plus
the new edges) and emits the cut/link decisions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.dsu import DisjointSet
from repro.graphs.graph import normalize

#: Total-order key of a graph edge: (weight, u, v).
EdgeKey = Tuple[float, int, int]
#: A parent-edge interval; tour roots use the sentinel (-1, size).
Interval = Tuple[int, int]


@dataclass(frozen=True)
class AnchorInfo:
    """Broadcast record for one A∪B vertex: its tour and parent interval."""

    vertex: int
    tour: int
    interval: Interval

    @property
    def is_root(self) -> bool:
        return self.interval[0] < 0


def below(p_in: int, e_labels: Interval) -> bool:
    """Is a vertex with parent-entry time ``p_in`` below edge ``e_labels``?"""
    return e_labels[0] <= p_in <= e_labels[1]


def in_m_prime(
    e_labels: Interval, a_entries: Sequence[int], assume_sorted: bool = False
) -> bool:
    """Steiner-tree membership for one MST edge of an affected tour.

    ``a_entries`` are the p_in values of *all* the tour's A-vertices
    (roots contribute -1, never below any edge).  Pass
    ``assume_sorted=True`` when the list is already ascending (the
    protocols keep it sorted) to skip the defensive sort.
    """
    entries = a_entries if assume_sorted else sorted(a_entries)
    n = len(entries)
    if n < 2:
        return False
    cnt = bisect_right(entries, e_labels[1]) - bisect_left(entries, e_labels[0])
    return 1 <= cnt <= n - 1


class MPrimeRows(NamedTuple):
    """Stored MST-edge copies that lie in M′, one row each, as columns.

    ``machine`` holds the copy, ``u < v`` are the endpoints, ``w`` the
    weight, ``e_min``/``e_max`` the labels and ``tour`` the tour id.
    """

    machine: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    e_min: np.ndarray
    e_max: np.ndarray
    tour: np.ndarray

    @classmethod
    def select(
        cls, machine: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
        t1: np.ndarray, t2: np.ndarray, tour: np.ndarray,
        entries: Mapping[int, Sequence[int]],
    ) -> "MPrimeRows":
        """The rows, among these MST-edge copies, that :func:`in_m_prime`
        accepts against ``entries[tour]`` (each tour's sorted A-entries);
        rows of a tour not in ``entries`` are dropped."""
        lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
        keep = np.zeros(tour.shape, dtype=bool)
        for tid, tour_entries in entries.items():
            a = np.asarray(tour_entries, dtype=np.int64)
            at = np.flatnonzero(tour == tid)
            cnt = np.searchsorted(a, hi[at], side="right") - np.searchsorted(a, lo[at])
            keep[at] = (cnt >= 1) & (cnt <= a.shape[0] - 1)
        return cls(machine[keep], u[keep], v[keep], w[keep], lo[keep], hi[keep], tour[keep])


@dataclass(frozen=True)
class PathSet:
    """One decomposition set, keyed for the distributed max-query.

    ``kind`` is "chain" (the path from ``child`` up to the real anchor
    ``parent``) or "pair" (the two arms of top-level anchors ``child`` and
    ``parent`` meeting at the tour's topmost Steiner bend).
    """

    tour: int
    kind: str
    child: AnchorInfo
    parent: AnchorInfo

    @property
    def query_id(self) -> Tuple[int, int]:
        if self.kind == "pair":
            return (self.tour, min(self.child.interval[0], self.parent.interval[0]))
        return (self.tour, self.child.interval[0])

    @property
    def h_edge(self) -> Tuple[int, int]:
        """The M'' edge this set contracts to (anchor vertex pair)."""
        return (self.child.vertex, self.parent.vertex)

    def matches_interval(self, e_labels: Interval) -> bool:
        """The interval half of membership (assumes e is known to be in M')."""
        if self.kind == "pair":
            return below(self.child.interval[0], e_labels) or below(
                self.parent.interval[0], e_labels
            )
        return self.parent.interval[0] < e_labels[0] and below(
            self.child.interval[0], e_labels
        )

    def contains_edge(
        self, e_labels: Interval, a_entries: Sequence[int],
        assume_sorted: bool = False,
    ) -> bool:
        """Is MST edge ``e_labels`` (of this tour) a member of this set?"""
        if not in_m_prime(e_labels, a_entries, assume_sorted):
            return False
        return self.matches_interval(e_labels)


def build_paths(
    anchors: Sequence[AnchorInfo],
    a_entries_by_tour: Dict[int, List[int]],
) -> List[PathSet]:
    """Construct the T-edges (path sets) from the broadcast anchors.

    ``a_entries_by_tour[t]`` lists the p_in values of A_t (anchors in A
    only, not B).  Deterministic given identical inputs, so every machine
    derives the same list.
    """
    by_tour: Dict[int, List[AnchorInfo]] = {}
    for a in anchors:
        by_tour.setdefault(a.tour, []).append(a)
    paths: List[PathSet] = []
    for tour in sorted(by_tour):
        group = sorted(by_tour[tour], key=lambda a: (a.interval[0], -a.interval[1]))
        a_entries = sorted(a_entries_by_tour.get(tour, []))
        top_level: List[AnchorInfo] = []
        # Anchor intervals are laminar and ``group`` lists them in
        # pre-order, so once the open anchors that end before the child
        # does are popped, the rest enclose it, the smallest on top.
        open_: List[AnchorInfo] = []
        for child in group:
            while open_ and open_[-1].interval[1] < child.interval[1]:
                open_.pop()
            best = open_[-1] if open_ else None
            open_.append(child)
            if best is None:
                top_level.append(child)
                continue
            if not child.is_root and in_m_prime(child.interval, a_entries, assume_sorted=True):
                paths.append(PathSet(tour, "chain", child, best))
        # Top-level anchors whose own parent edge is in M' meet at the
        # tour's topmost Steiner bend; there are either 0 or exactly 2.
        live_top = [
            c for c in top_level
            if not c.is_root and in_m_prime(c.interval, a_entries, assume_sorted=True)
        ]
        if len(live_top) == 2:
            c1, c2 = sorted(live_top, key=lambda a: a.interval[0])
            paths.append(PathSet(tour, "pair", c1, c2))
        elif len(live_top) > 2:
            raise AssertionError(
                f"tour {tour}: {len(live_top)} top-level M'-anchors; "
                "the Steiner structure guarantees at most 2"
            )
    return paths


def steiner_junctions(rows: MPrimeRows, k: int) -> List[Tuple[int, int]]:
    """Every ``(machine, vertex)`` with at least three incident rows, in
    ``(machine, vertex)`` order.

    A vertex's home machine holds all of its MST edges, so there the
    count is the vertex's M′ degree: the B test of §6.1 step 3.
    """
    machine = np.concatenate((rows.machine, rows.machine))
    code, degree = np.unique(np.concatenate((rows.u, rows.v)) * k + machine,
                             return_counts=True)
    return sorted((c % k, c // k) for c in code[degree >= 3].tolist())


def path_set_maxima(
    paths: Sequence[PathSet], rows: MPrimeRows, k: int
) -> Dict[Tuple[int, int], List[Optional[Tuple[EdgeKey, int, int]]]]:
    """Each machine's answer to each path set's max-query (§6.1 step 5).

    An M′ edge belongs to the set whose child is the topmost anchor
    below it — a pair set has two children, its arms — and that anchor's
    p_in is the smallest child entry in ``[e_min, e_max]``: one
    ``searchsorted`` per tour over the sorted child entries finds it,
    and the set's :meth:`PathSet.matches_interval` test, taken over the
    arrays, keeps the row.  Per ``(query id, machine)`` the answer is the
    kept row with the largest ``(w, u, v)``, as ``((w, u, v), u, v)``,
    or None where the machine holds none.
    """
    per_query: Dict[Tuple[int, int], List[Optional[Tuple[EdgeKey, int, int]]]] = {
        p.query_id: [None] * k for p in paths
    }
    arms: Dict[int, List[Tuple[int, int]]] = {}
    for j, p in enumerate(paths):
        for a in (p.child, p.parent) if p.kind == "pair" else (p.child,):
            arms.setdefault(p.tour, []).append((a.interval[0], j))
    owner = np.full(rows.tour.shape, -1, dtype=np.int64)
    for tour, tour_arms in arms.items():
        tour_arms.sort()
        starts = np.array([s for s, _j in tour_arms], dtype=np.int64)
        at = np.flatnonzero(rows.tour == tour)
        pos = np.searchsorted(starts, rows.e_min[at])
        found = pos < starts.shape[0]
        owner[at[found]] = np.array([j for _s, j in tour_arms], dtype=np.int64)[pos[found]]

    hit = np.flatnonzero(owner >= 0)
    sets = owner[hit]
    lo, hi = rows.e_min[hit], rows.e_max[hit]
    child = np.array([p.child.interval[0] for p in paths], dtype=np.int64)[sets]
    parent = np.array([p.parent.interval[0] for p in paths], dtype=np.int64)[sets]
    pair = np.array([p.kind == "pair" for p in paths], dtype=bool)[sets]
    below_child = (lo <= child) & (child <= hi)
    below_parent = (lo <= parent) & (parent <= hi)
    hit = hit[np.where(pair, below_child | below_parent, (parent < lo) & below_child)]

    group = owner[hit] * k + rows.machine[hit]
    order = np.lexsort((rows.v[hit], rows.u[hit], rows.w[hit], group))
    group = group[order]
    last = np.ones(group.shape[0], dtype=bool)
    last[:-1] = group[1:] != group[:-1]
    top = hit[order[last]]
    for s, m, w, u, v in zip(
        owner[top].tolist(), rows.machine[top].tolist(), rows.w[top].tolist(),
        rows.u[top].tolist(), rows.v[top].tolist(),
    ):
        per_query[paths[s].query_id][m] = ((w, u, v), u, v)
    return per_query


@dataclass
class ContractionDecision:
    """Output of the contracted-MSF computation."""

    cuts: List[Tuple[int, int]]  # MST edges to remove
    links: List[Tuple[int, int, float]]  # new edges entering the MST
    rejected: List[Tuple[int, int, float]]  # new edges kept as plain graph edges


def solve_contracted(
    paths: Sequence[PathSet],
    path_max: Dict[Tuple[int, int], Optional[Tuple[EdgeKey, int, int]]],
    new_edges: Sequence[Tuple[int, int, float]],
) -> ContractionDecision:
    """Kruskal over the contracted instance M'' (Figure 3's right side).

    ``path_max[qid]`` is the max-query answer for that path set: (edge
    key, u, v) of the heaviest MST edge in the set.  Path sets enter with
    their max key (removing any other edge of the set would be worse),
    new edges with their own key.  A path set losing means its max edge
    is cut; a new edge winning means it is linked.
    """
    items: List[Tuple[EdgeKey, int, Tuple]] = []
    for p in paths:
        ans = path_max.get(p.query_id)
        if ans is None:
            raise ValueError(f"no max answer for path set {p.query_id}")
        key, mu, mv = ans
        items.append((key, 0, (p.h_edge[0], p.h_edge[1], mu, mv)))
    for (u, v, w) in new_edges:
        u, v = normalize(u, v)
        items.append(((w, u, v), 1, (u, v, w)))
    items.sort()

    dsu = DisjointSet()
    decision = ContractionDecision(cuts=[], links=[], rejected=[])
    for key, kind, payload in items:
        if kind == 0:
            child, parent, mu, mv = payload
            if not dsu.union(child, parent):
                decision.cuts.append(normalize(mu, mv))
        else:
            u, v, w = payload
            if dsu.union(u, v):
                decision.links.append((u, v, w))
            else:
                decision.rejected.append((u, v, w))
    return decision
