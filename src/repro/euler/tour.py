"""Centralized Euler-tour forest — the oracle for the distributed state.

:class:`EulerForest` maintains, for a spanning forest, the per-edge tour
labels exactly as the distributed machines do (§5.2), but in one place and
with explicit per-tour vertex sets, so tests can verify every invariant:

* labels of a tour of size L are a permutation of 0..L-1 once split into
  directed traversals;
* consecutive traversals chain head-to-tail (it *is* a closed walk);
* every edge appears exactly twice, once per direction.

All mutations go through the same pure transforms of
:mod:`repro.euler.labels` that the reference engine's machines apply,
one label at a time on a tour of any size, so a bug in the arithmetic
breaks the oracle's own validity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ProtocolError
from repro.euler.labels import (
    JoinSpec,
    SplitSpec,
    join_m1_label,
    join_m2_label,
    reroot_label,
    split_label,
)
from repro.graphs.graph import Edge, normalize


@dataclass(slots=True)
class ETEdge:
    """An MST edge annotated with its Euler-tour traversal labels.

    ``t_uv`` is the time of the u→v traversal, ``t_vu`` of v→u (u < v).
    ``tour`` is the tour id; the tour size lives in the owning structure
    (distributedly it is replicated next to each edge).  ``slots=True``
    because every machine holds an ``ETEdge`` copy per local MST edge
    plus one per witness — the dominant object population at scale.
    """

    u: int
    v: int
    weight: float
    t_uv: int
    t_vu: int
    tour: int

    @property
    def e_min(self) -> int:
        return min(self.t_uv, self.t_vu)

    @property
    def e_max(self) -> int:
        return max(self.t_uv, self.t_vu)

    @property
    def key(self) -> Tuple[float, int, int]:
        return (self.weight, self.u, self.v)

    def head_at(self, label: int) -> int:
        """The vertex the traversal at ``label`` points toward."""
        if label == self.t_uv:
            return self.v
        if label == self.t_vu:
            return self.u
        raise ValueError(f"label {label} does not belong to edge ({self.u},{self.v})")

    def tail_at(self, label: int) -> int:
        return self.u if self.head_at(label) == self.v else self.v

    def as_edge(self) -> Edge:
        return Edge(self.u, self.v, self.weight)

    def labels(self) -> Tuple[int, int]:
        return (self.e_min, self.e_max)

    def snapshot(self) -> Tuple[int, int, float, int, int, int]:
        """Immutable wire form: (u, v, weight, t_uv, t_vu, tour)."""
        return (self.u, self.v, self.weight, self.t_uv, self.t_vu, self.tour)

    @staticmethod
    def from_snapshot(snap: Sequence) -> "ETEdge":
        return ETEdge(*snap)


def check_valid_tour(etedges: Iterable[ETEdge], size: int) -> bool:
    """First-principles validity: the labels describe a closed Euler walk."""
    step: Dict[int, Tuple[int, int]] = {}
    for e in etedges:
        for label, tail, head in ((e.t_uv, e.u, e.v), (e.t_vu, e.v, e.u)):
            if label in step:
                return False
            step[label] = (tail, head)
    if sorted(step) != list(range(size)):
        return False
    if size == 0:
        return True
    for i in range(size):
        _, head = step[i]
        tail_next, _ = step[(i + 1) % size]
        if head != tail_next:
            return False
    return True


class EulerForest:
    """Euler-tour structure over a dynamic spanning forest (centralized)."""

    def __init__(self) -> None:
        self.edges: Dict[Tuple[int, int], ETEdge] = {}
        self.tour_of: Dict[int, int] = {}  # vertex -> tour id
        self.tour_size: Dict[int, int] = {}  # tour id -> directed steps
        self._tour_vertices: Dict[int, Set[int]] = {}
        self._next_tour = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, vertices: Iterable[int], forest_edges: Iterable[Edge]) -> "EulerForest":
        """Build tours by DFS from each component's minimum vertex."""
        ef = cls()
        adj: Dict[int, List[Edge]] = {}
        verts = set(vertices)
        for e in forest_edges:
            verts.add(e.u)
            verts.add(e.v)
            adj.setdefault(e.u, []).append(e)
            adj.setdefault(e.v, []).append(e)
        seen: Set[int] = set()
        for root in sorted(verts):
            if root in seen:
                continue
            tid = ef._fresh_tour()
            ef._tour_vertices[tid] = set()
            # Iterative DFS assigning traversal times.
            time = 0
            stack: List[Tuple[int, Optional[Edge], int]] = [(root, None, 0)]
            seen.add(root)
            ef.tour_of[root] = tid
            ef._tour_vertices[tid].add(root)
            # Explicit DFS with child iterators to label both directions.
            iters = {root: iter(sorted(adj.get(root, []), key=lambda e: e.key()))}
            path: List[int] = [root]
            via: Dict[int, Edge] = {}
            while path:
                cur = path[-1]
                advanced = False
                for e in iters[cur]:
                    nxt = e.other(cur)
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    ef.tour_of[nxt] = tid
                    ef._tour_vertices[tid].add(nxt)
                    u, v = e.u, e.v
                    ete = ETEdge(u, v, e.weight, -1, -1, tid)
                    if cur == u:
                        ete.t_uv = time
                    else:
                        ete.t_vu = time
                    time += 1
                    ef.edges[(u, v)] = ete
                    via[nxt] = e
                    iters[nxt] = iter(sorted(adj.get(nxt, []), key=lambda e: e.key()))
                    path.append(nxt)
                    advanced = True
                    break
                if not advanced:
                    path.pop()
                    if path:
                        e = via[cur]
                        ete = ef.edges[(e.u, e.v)]
                        if cur == ete.u:
                            ete.t_uv = time
                        else:
                            ete.t_vu = time
                        time += 1
            ef.tour_size[tid] = time
        return ef

    def _fresh_tour(self) -> int:
        tid = self._next_tour
        self._next_tour += 1
        return tid

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def tour_edges(self, tid: int) -> List[ETEdge]:
        return [e for e in self.edges.values() if e.tour == tid]

    def incident(self, x: int) -> List[ETEdge]:
        # Note: O(#edges); the oracle favours clarity over speed.
        return [e for e in self.edges.values() if x in (e.u, e.v)]

    def outgoing_value(self, x: int) -> Optional[int]:
        """The minimum label at which the tour departs from ``x`` (None if isolated)."""
        best: Optional[int] = None
        for e in self.incident(x):
            for label in (e.t_uv, e.t_vu):
                if e.tail_at(label) == x and (best is None or label < best):
                    best = label
        return best

    def parent_edge(self, x: int) -> ETEdge:
        """Lemma 5.3: the incident edge with the minimum label (x not root)."""
        inc = self.incident(x)
        if not inc:
            raise ProtocolError(f"vertex {x} is isolated; no parent edge")
        p = min(inc, key=lambda e: e.e_min)
        if p.head_at(p.e_min) != x:
            raise ProtocolError(f"vertex {x} is the root of its tour; no parent edge")
        return p

    def root(self, tid: int) -> int:
        """The vertex from which the label-0 traversal departs."""
        for e in self.tour_edges(tid):
            if e.e_min == 0:
                return e.tail_at(0)
        # Singleton tour: its sole vertex.
        verts = self._tour_vertices.get(tid, set())
        if len(verts) == 1:
            return next(iter(verts))
        raise ProtocolError(f"tour {tid} has no label 0")

    def vertices_of_tour(self, tid: int) -> Set[int]:
        return set(self._tour_vertices.get(tid, set()))

    def tour_id(self, x: int) -> int:
        """The tour id of vertex ``x``."""
        return self.tour_of[x]

    def same_tour(self, u: int, v: int) -> bool:
        return self.tour_of[u] == self.tour_of[v]

    def has_edge(self, u: int, v: int) -> bool:
        return normalize(u, v) in self.edges

    def forest_edges(self) -> List[Edge]:
        return [e.as_edge() for e in self.edges.values()]

    def entering_time(self, x: int) -> Optional[int]:
        """Time the tour first enters ``x`` (None for roots/singletons)."""
        inc = self.incident(x)
        if not inc:
            return None
        p = min(inc, key=lambda e: e.e_min)
        return p.e_min if p.head_at(p.e_min) == x else None

    # ------------------------------------------------------------------
    # mutations (Lemmas 5.5 / 5.6 / 5.7)
    # ------------------------------------------------------------------
    def add_vertex(self, x: int) -> int:
        """Register an isolated vertex as its own (size-0) tour."""
        if x in self.tour_of:
            return self.tour_of[x]
        tid = self._fresh_tour()
        self.tour_of[x] = tid
        self.tour_size[tid] = 0
        self._tour_vertices[tid] = {x}
        return tid

    def reroot(self, x: int) -> None:
        """Make ``x`` the root of its tour (Lemma 5.5)."""
        tid = self.tour_of[x]
        size = self.tour_size[tid]
        if size == 0:
            return
        d = self.outgoing_value(x)
        assert d is not None
        for e in self.tour_edges(tid):
            e.t_uv = reroot_label(e.t_uv, d, size)
            e.t_vu = reroot_label(e.t_vu, d, size)

    def cut(self, u: int, v: int) -> SplitSpec:
        """Remove forest edge (u, v) and split its tour (Lemma 5.6)."""
        key = normalize(u, v)
        if key not in self.edges:
            raise KeyError(f"forest edge {key} not present")
        cut_edge = self.edges.pop(key)
        tid = cut_edge.tour
        spec = SplitSpec(
            e_min=cut_edge.e_min,
            e_max=cut_edge.e_max,
            size=self.tour_size[tid],
            old_tour=tid,
            inside_tour=self._fresh_tour(),
        )
        # Classify vertices before relabelling: inside iff entering time in
        # [e_min, e_max).
        inside_vertices: Set[int] = set()
        for x in self._tour_vertices[tid]:
            t_in = None
            inc = [e for e in self.incident(x)] + [cut_edge]
            inc = [e for e in inc if x in (e.u, e.v) and e.tour == tid]
            if inc:
                p = min(inc, key=lambda e: e.e_min)
                if p.head_at(p.e_min) == x:
                    t_in = p.e_min
            if t_in is not None and spec.e_min <= t_in < spec.e_max:
                inside_vertices.add(x)
        for e in self.tour_edges(tid):
            e.tour, e.t_uv = split_label(e.t_uv, spec)
            e.t_vu = split_label(e.t_vu, spec)[1]
        self.tour_size[spec.old_tour] = spec.root_side_size
        self.tour_size[spec.inside_tour] = spec.inside_size
        self._tour_vertices[spec.inside_tour] = inside_vertices
        self._tour_vertices[spec.old_tour] -= inside_vertices
        for x in inside_vertices:
            self.tour_of[x] = spec.inside_tour
        return spec

    def link(self, u: int, v: int, weight: float) -> JoinSpec:
        """Add forest edge (u, v) joining two distinct tours (Lemma 5.7)."""
        u, v = normalize(u, v)
        t1, t2 = self.tour_of[u], self.tour_of[v]
        if t1 == t2:
            raise ValueError(f"({u}, {v}) would close a cycle in tour {t1}")
        a = self.outgoing_value(u)
        b = self.outgoing_value(v)
        spec = JoinSpec(
            a=a if a is not None else 0,
            b=b if b is not None else 0,
            size1=self.tour_size[t1],
            size2=self.tour_size[t2],
            tour1=t1,
            tour2=t2,
        )
        edges1 = self.tour_edges(t1)
        edges2 = self.tour_edges(t2)
        for e in edges1:
            e.t_uv = join_m1_label(e.t_uv, spec)
            e.t_vu = join_m1_label(e.t_vu, spec)
        for e in edges2:
            e.t_uv = join_m2_label(e.t_uv, spec)
            e.t_vu = join_m2_label(e.t_vu, spec)
            e.tour = t1
        lab_in, lab_out = spec.new_edge_labels
        # The in-traversal at ``a`` departs u and enters v.
        ete = ETEdge(u, v, weight, lab_in, lab_out, t1)
        self.edges[(u, v)] = ete
        self.tour_size[t1] = spec.new_size
        self._tour_vertices[t1] |= self._tour_vertices.pop(t2)
        for x in self._tour_vertices[t1]:
            self.tour_of[x] = t1
        self.tour_size.pop(t2, None)
        return spec

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ProtocolError if any tour invariant is broken."""
        by_tour: Dict[int, List[ETEdge]] = {}
        for e in self.edges.values():
            by_tour.setdefault(e.tour, []).append(e)
        for tid, size in self.tour_size.items():
            edges = by_tour.get(tid, [])
            if not check_valid_tour(edges, size):
                raise ProtocolError(f"tour {tid} labels are not a valid Euler walk")
            verts = self._tour_vertices.get(tid, set())
            if size != 2 * max(len(verts) - 1, 0):
                raise ProtocolError(
                    f"tour {tid}: size {size} inconsistent with {len(verts)} vertices"
                )
            touched = {x for e in edges for x in (e.u, e.v)}
            if edges and touched != verts:
                raise ProtocolError(f"tour {tid}: edge endpoints disagree with vertex set")
        extra = set(by_tour) - set(self.tour_size)
        if extra:
            raise ProtocolError(f"edges reference unknown tours {extra}")
