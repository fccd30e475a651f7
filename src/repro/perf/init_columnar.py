"""Columnar Borůvka initialisation (Theorem 5.8 and Theorem 8.1, fast).

The reference initialisers — :func:`repro.core.init_build.distributed_init`
(k-machine, Theorem 5.8) and :func:`repro.mpc.init_mpc.mpc_init` (MPC,
Theorem 8.1) — spend almost all of their wall clock in one scalar loop:
every Borůvka phase rescans every machine's graph-edge dictionary, calls
``dsu.find`` twice per edge, and keeps a per-component best candidate in
a Python dict.  That scan is O(m·phases) tuple work and dominates the
O(n/k + log n)-round initialisation the benches measure.

This module replaces the *local computation* of that scan while keeping
the wire byte-identical:

* each machine's graph edges are packed **once per init** into parallel
  NumPy columns (:class:`GraphEdgeTable`, ranked once);
* each phase resolves every vertex's component representative in a few
  vectorized pointer-jumping passes (:meth:`ArrayDSU.root_indices`)
  instead of n dict-walking ``find`` calls;
* the per-component minimum outgoing edge of a machine is one
  ``np.lexsort`` + group-first pass (:func:`min_outgoing_rows`) over the
  edge table, ordered by the same global key ``(w, u, v)`` the scalar
  candidate tuples compare by.

Everything that *touches the wire* is unchanged: the per-query
contribution tables handed to :func:`repro.comm.aggregate.batched_queries`
hold the same Python-scalar payloads for the same (query, machine) slots,
the answers are folded in the same sorted order, the union sequence is
identical (see :class:`ArrayDSU`), and the chosen edges are linked in
the same Lemma 5.9 chunks, straight into the resident fleet columns
(:func:`repro.perf.columnar.link_into_fleet`) inside one gauge epoch.
The ledger transcript therefore matches the reference engine's charge
for charge — ``tests/perf`` verifies digests, transcripts and machine
state under ``REPRO_STRICT=1``, and ``repro trace-diff`` localises any
regression.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.core.state import MachineState
    from repro.graphs.graph import Edge
    from repro.sim.network import Network
    from repro.sim.partition import VertexPartition


class ArrayDSU:
    """Array-backed union-find replicating :class:`DisjointSet`'s choices.

    The reference initialisers put component *representatives* on the
    wire (they key the batched min-queries), so matching the reference
    DSU's answers is a wire requirement, not a convenience.  This class
    uses the same union-by-size rule with the same tie-break (the first
    argument's root wins on equal sizes) over the same element set, so
    every ``find`` returns the exact element the scalar
    :class:`repro.graphs.dsu.DisjointSet` would return at the same point
    of the protocol — path compression only shortens pointer chains,
    never changes roots.

    ``ids`` must be sorted and duplicate-free; elements are addressed by
    their position in it.  Scalar ``union``/``find`` use path-halving
    loops (O(#unions) per phase); :meth:`root_indices` resolves *every*
    element at once by vectorized pointer jumping (O(log depth) array
    passes — depth is logarithmic under union by size).
    """

    __slots__ = ("ids", "parent", "size")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = self.ids.shape[0]
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def index_of(self, x: int) -> int:
        return int(np.searchsorted(self.ids, x))

    def _find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = int(parent[i])
        return i

    def find(self, x: int) -> int:
        """Representative *element* of x's component (same as DisjointSet)."""
        return int(self.ids[self._find(self.index_of(x))])

    def union(self, x: int, y: int) -> bool:
        """Merge by size, first argument's root winning ties; True if merged."""
        rx, ry = self._find(self.index_of(x)), self._find(self.index_of(y))
        if rx == ry:
            return False
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        return True

    def root_indices(self) -> np.ndarray:
        """Root *index* of every element, via vectorized pointer jumping."""
        p = self.parent.copy()
        while True:
            gp = p[p]
            if np.array_equal(gp, p):
                return p
            p = gp


class GraphEdgeTable:
    """One machine's graph edges as parallel columns, ranked once per init.

    ``u``/``v`` are the stored (normalized, u < v) endpoint ids, ``w``
    the weights; ``ui``/``vi`` are the endpoints' dense indices into the
    init's sorted vertex-id array, precomputed so each phase's root
    lookup is a pure ``take``.  ``by_rank`` orders the rows by the
    global key ``(w, u, v)`` — the table never changes during an init,
    so the expensive three-key lexsort is paid once and every phase's
    min-reduction degrades to a single-key stable sort.  Row order is
    the dictionary's insertion order — the same order the scalar scan
    iterates — which matters only for tie-breaking, and ties are
    impossible: ``(w, u, v)`` repeats nowhere within one machine's edge
    dict.  A columnar instance's table is a slice of the resident
    graph-edge columns (:meth:`of_machine`), which hold each machine's
    edges in that same order.
    """

    __slots__ = ("u", "v", "w", "ui", "vi", "by_rank")

    def __init__(
        self, graph_edges: Mapping[Tuple[int, int], float], ids: np.ndarray
    ) -> None:
        n = len(graph_edges)
        self._rank(
            np.fromiter((k[0] for k in graph_edges), np.int64, n),
            np.fromiter((k[1] for k in graph_edges), np.int64, n),
            np.fromiter(graph_edges.values(), np.float64, n),
            ids,
        )

    @classmethod
    def of_machine(cls, fleet, m: int, ids: np.ndarray) -> "GraphEdgeTable":
        """Machine ``m``'s rows of the resident fleet graph-edge columns."""
        ng = fleet.ng
        rows = np.flatnonzero(fleet.galive[:ng] & (fleet.gmid[:ng] == m))
        table = cls.__new__(cls)
        table._rank(fleet.gu[rows], fleet.gv[rows], fleet.gw[rows], ids)
        return table

    def _rank(self, u: np.ndarray, v: np.ndarray, w: np.ndarray, ids: np.ndarray) -> None:
        self.u, self.v, self.w = u, v, w
        self.ui = np.searchsorted(ids, u)
        self.vi = np.searchsorted(ids, v)
        self.by_rank = np.lexsort((v, u, w))


def min_outgoing_rows(
    table: GraphEdgeTable, roots: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-component minimum outgoing edge of one machine, batched.

    ``roots[i]`` is the dense root index of vertex index ``i``.  Returns
    ``(components, rows)``: for every component (dense root index) with
    at least one outgoing edge in ``table``, the row of its minimum edge
    under the global key order ``(w, u, v)`` — exactly the candidate the
    scalar scan's ``cand < best[r]`` comparison keeps.  Components are
    returned in ascending dense-index order.

    Walks the rows in the table's precomputed ``by_rank`` order, so the
    per-component minimum is the *first* candidate seen per component:
    one stable single-key sort by component (which preserves the rank
    order within each component) plus a group-first mask.
    """
    by_rank = table.by_rank
    ru = roots[table.ui[by_rank]]
    rv = roots[table.vi[by_rank]]
    keep = ru != rv
    rows_r = by_rank[keep]
    if rows_r.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Each surviving edge is a candidate for both endpoint components;
    # interleave the two copies so array order stays ascending-rank.
    comp = np.empty(2 * rows_r.size, dtype=np.int64)
    comp[0::2] = ru[keep]
    comp[1::2] = rv[keep]
    rows = np.repeat(rows_r, 2)
    order = np.argsort(comp, kind="stable")
    comp_s = comp[order]
    rows_s = rows[order]
    first = np.ones(comp_s.size, dtype=bool)
    first[1:] = comp_s[1:] != comp_s[:-1]
    return comp_s[first], rows_s[first]


class _FleetLinker:
    """The init's Lemma 5.9 link chunks, applied to the fleet columns.

    Each call is one link batch with the reference's wire (its engine
    event included); the whole init is one gauge epoch, closed by
    :meth:`close`.  Link batches never consume fresh tour ids, so the
    counter is untouched.
    """

    def __init__(
        self,
        net: "Network",
        vp: "VertexPartition",
        states: Sequence["MachineState"],
    ) -> None:
        self.net, self.vp, self.states = net, vp, states
        self.fleet = states[0].fleet  # type: ignore[attr-defined]
        self.fleet.begin_epoch()

    def __call__(self, links: Sequence[Tuple[int, int, float]]) -> None:
        from repro.perf.columnar import link_into_fleet

        recorder = self.net.ledger.recorder
        if recorder is not None:
            recorder.on_engine("structural_batch", "columnar")
        link_into_fleet(self.net, self.vp, self.states, links)

    def close(self) -> None:
        self.fleet.end_epoch(self.states)


def distributed_init_columnar(
    net: "Network",
    vp: "VertexPartition",
    states: Sequence["MachineState"],
    vertices: Sequence[int],
    next_tour_id: int,
) -> Tuple[Set["Edge"], int]:
    """Columnar twin of :func:`repro.core.init_build.distributed_init`.

    Identical phase structure, query tables, answer folding, union
    sequence and Lemma 5.9 link chunks; only the per-machine candidate
    scan and the component-representative resolution are vectorized.
    """
    from repro.comm.aggregate import batched_queries
    from repro.graphs.graph import Edge
    from repro.sim.message import WORDS_EDGE

    k = net.k
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("init_build", "columnar")
    ids = np.asarray(sorted(vertices), dtype=np.int64)
    dsu = ArrayDSU(ids)
    link = _FleetLinker(net, vp, states)
    tables = [GraphEdgeTable.of_machine(link.fleet, st.mid, ids) for st in states]
    msf: Set[Edge] = set()
    with net.ledger.phase("init"):
        while True:
            roots = dsu.root_indices()
            uroots = np.unique(roots)
            if uroots.size <= 1:
                break
            root_ids = ids[uroots]
            # Dense root index -> position among this phase's roots.
            slot = np.zeros(ids.shape[0], dtype=np.int64)
            slot[uroots] = np.arange(uroots.size)
            id_list = root_ids.tolist()
            per_query: Dict[int, List[Optional[Tuple]]] = {
                r: [None] * k for r in id_list
            }
            for mid, table in enumerate(tables):
                comps, rows = min_outgoing_rows(table, roots)
                if comps.size == 0:
                    continue
                us = table.u[rows].tolist()
                vs = table.v[rows].tolist()
                ws = table.w[rows].tolist()
                cs = slot[comps].tolist()
                for c, u, v, w in zip(cs, us, vs, ws):
                    per_query[id_list[c]][mid] = ((w, u, v), u, v)
            answers = batched_queries(net, per_query, min, words=WORDS_EDGE)
            chosen: List[Edge] = []
            for r in sorted(answers):
                ans = answers[r]
                if ans is None:
                    continue
                (wk, u, v) = ans[0], ans[1], ans[2]
                if dsu.union(u, v):
                    chosen.append(Edge(u, v, wk[0]))
            if not chosen:
                break
            msf.update(chosen)
            # Link the new forest edges k at a time (Lemma 5.9).
            chosen.sort(key=lambda e: e.key())
            for base in range(0, len(chosen), k):
                chunk = chosen[base : base + k]
                link([(e.u, e.v, e.weight) for e in chunk])
    link.close()
    return msf, next_tour_id


def mpc_init_columnar(
    net: "Network",
    vp: "VertexPartition",
    states: Sequence["MachineState"],
    vertices: Sequence[int],
    next_tour_id: int,
    batch_limit: Optional[int] = None,
) -> Tuple[Set["Edge"], int]:
    """Columnar twin of :func:`repro.mpc.init_mpc.mpc_init` (Theorem 8.1).

    Step 1 (the per-component min-outgoing-edge scan) is the vectorized
    table pass; steps 2–4 — forest orientation, the measured Cole–Vishkin
    colour exchanges, and the star merges — are O(#components) and reuse
    the reference code verbatim, fed identical answers.
    """
    from collections import Counter

    from repro.comm.aggregate import batched_queries
    from repro.graphs.graph import Edge
    from repro.mpc.cole_vishkin import cole_vishkin_3coloring
    from repro.mpc.init_mpc import _charge_cv_exchanges
    from repro.sim.message import WORDS_EDGE

    k = net.k
    if batch_limit is None:
        batch_limit = getattr(net, "space", k)
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("mpc_init", "columnar")
    ids = np.asarray(sorted(vertices), dtype=np.int64)
    dsu = ArrayDSU(ids)
    link = _FleetLinker(net, vp, states)
    tables = [GraphEdgeTable.of_machine(link.fleet, st.mid, ids) for st in states]
    msf: Set[Edge] = set()
    with net.ledger.phase("mpc_init"):
        while True:
            roots_dense = dsu.root_indices()
            uroots = np.unique(roots_dense)
            if uroots.size <= 1:
                break
            slot = np.zeros(ids.shape[0], dtype=np.int64)
            slot[uroots] = np.arange(uroots.size)
            id_list = ids[uroots].tolist()
            roots = id_list  # ascending, like the scalar sorted({find(v)})
            # Step 1: per-component min outgoing edge (vectorized scan).
            per_query: Dict[int, List[Optional[Tuple]]] = {
                r: [None] * k for r in roots
            }
            for mid, table in enumerate(tables):
                comps, rows = min_outgoing_rows(table, roots_dense)
                if comps.size == 0:
                    continue
                us = table.u[rows].tolist()
                vs = table.v[rows].tolist()
                ws = table.w[rows].tolist()
                cs = slot[comps].tolist()
                for c, u, v, w in zip(cs, us, vs, ws):
                    per_query[id_list[c]][mid] = ((w, u, v), u, v)
            answers = batched_queries(net, per_query, min, words=WORDS_EDGE)

            # Step 2: orient the component forest F.
            chosen: Dict[int, Tuple[int, int, float, int]] = {}
            for r in roots:
                ans = answers.get(r)
                if ans is None:
                    continue
                (w, u, v), eu, ev = ans[0], ans[1], ans[2]
                other = dsu.find(ev) if dsu.find(eu) == r else dsu.find(eu)
                chosen[r] = (eu, ev, w, other)
            if not chosen:
                break
            # Mutual pairs (a ↔ b, a < b) make a the root of their tree;
            # the classic argument rules out longer pointer cycles.
            parent: Dict[int, Optional[int]] = {}
            for r, (_eu, _ev, _w, other) in chosen.items():
                mutual = other in chosen and chosen[other][3] == r
                parent[r] = None if (mutual and r < other) else other

            # Step 3: Cole–Vishkin 3-colouring, charged per iteration.
            colour, iters = cole_vishkin_3coloring(parent)
            _charge_cv_exchanges(net, vp, parent, iters)

            # Step 4: the most frequent colour merges through its edge.
            counts = Counter(colour[r] for r in chosen if parent[r] is not None)
            best_colour = min(
                (c for c in counts), key=lambda c: (-counts[c], c)
            )
            links: List[Tuple[int, int, float]] = []
            for r in sorted(chosen):
                if colour[r] != best_colour or parent[r] is None:
                    continue
                eu, ev, w, other = chosen[r]
                if dsu.union(r, other):
                    links.append((eu, ev, w))
                    msf.add(Edge.of(eu, ev, w))
            links.sort()
            for base in range(0, len(links), max(batch_limit, 1)):
                link(links[base : base + batch_limit])
    link.close()
    return msf, next_tour_id
