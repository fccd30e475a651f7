"""Vectorized local kernels for contracted CONGESTED-CLIQUE instances (§6.2).

Three local scans move no words but dominate the wall clock of a
deletion batch and a contracted-instance solve:

* step 3 of :func:`repro.core.batch_deletion.batch_delete` — every
  machine's cycle deletion over its deletion candidates, run by
  :func:`grouped_local_msf` for all machines at once, on both engines;
* :func:`repro.cclique.engines._cc_local_msf` — machine-local cycle
  deletion inside the engines (several times per solve on the
  merge-and-filter paths), the one-group call of the same kernel
  (:func:`cc_local_msf_columnar`);
* :func:`repro.cclique.engines._cc_min_outgoing` — the Borůvka engine's
  per-phase candidate scan, where every machine walks its whole
  :class:`CCEdge` list (:class:`CCEdgeTable`).

Above the ``VECTOR_MIN_ROWS`` crossover a fast-path network runs the
engines' two scans as NumPy passes with **identical observable
results**: the same MSF edge objects in the same order, and the same
``CCEdge`` objects in the same (query, machine) slots of the Borůvka
query table.  The engines themselves, and everything they send, are
written once in :mod:`repro.cclique.engines`.

The local-MSF kernel runs Borůvka over *sort ranks*: rows get their
position in the scalar path's sort order (``(group, key, cu, cv)``,
stable) as a unique integer priority, and per-component minimum
selection over ranks (shared with :meth:`CCEdgeTable.min_outgoing`) is
an ``np.lexsort`` + group-first pass per round.  Super-vertex ids are
offset per group, so groups never merge.  With unique priorities the
greedy (Kruskal) forest and the Borůvka forest are the same unique MSF,
so the selected rows are the scalar scan's accepted edges — returned in
rank order, exactly like the scalar append order.  Duplicate rows (the
§6.2 reduction sends an edge to both endpoint machines, so merged lists
can repeat an edge) tie on every compared field; stable ranking keeps
the first occurrence, matching the scalar scan's strict-``<``
tie-break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cclique.ccedge import CCEdge
    from repro.sim.network import Network


def _collapse(parent: np.ndarray) -> np.ndarray:
    """Pointer-jump ``parent`` to fixpoint (every entry becomes its root)."""
    while True:
        gp = parent[parent]
        if np.array_equal(gp, parent):
            return gp
        parent = gp


def _rank(order: np.ndarray) -> np.ndarray:
    """Each row's position in ``order`` (a permutation of the rows)."""
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    return rank


def _min_rank_per_component(
    ra: np.ndarray, rb: np.ndarray, rank: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(components, rows): per component, its least-rank row among the rows
    whose endpoint components ``ra``, ``rb`` differ (a row is a candidate
    for both of its components), components ascending."""
    keep = np.flatnonzero(ra != rb)
    rows = np.concatenate((keep, keep))
    comp = np.concatenate((ra[keep], rb[keep]))
    order = np.lexsort((rank[rows], comp))
    comp_s = comp[order]
    first = np.ones(comp_s.size, dtype=bool)
    first[1:] = comp_s[1:] != comp_s[:-1]
    return comp_s[first], rows[order][first]


def grouped_local_msf(
    group: np.ndarray, cu: np.ndarray, cv: np.ndarray,
    w: np.ndarray, x: np.ndarray, y: np.ndarray,
) -> np.ndarray:
    """Rows of every group's minimum spanning forest, in rank order.

    Row i joins super-vertices ``cu[i]`` and ``cv[i]`` of group
    ``group[i]`` (a machine: groups share no super-vertex) under the key
    ``(w, x, y)[i]``.  Rows are ranked by ``(group, w, x, y, cu, cv)``,
    stably, which within a group is the scalar path's ``sorted(CCEdge)``
    order; one rank-priority Borůvka runs every group at once, and the
    selected rows come back group by group in the order the scalar scan
    accepts them.
    """
    n = group.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((cv, cu, y, x, w, group))
    rank = _rank(order)
    # Super-vertex ids offset per group, then compacted.
    span = int(max(cu.max(), cv.max())) + 1
    nodes, idx = np.unique(
        np.concatenate((group * span + cu, group * span + cv)), return_inverse=True
    )
    a, b = idx[:n], idx[n:]
    node_ids = np.arange(nodes.shape[0], dtype=np.int64)
    parent = node_ids.copy()
    selected = np.zeros(n, dtype=bool)
    while True:
        roots = _collapse(parent)
        ra, rb = roots[a], roots[b]
        sel_comp, sel_edge = _min_rank_per_component(ra, rb, rank)
        if sel_comp.size == 0:
            break
        selected[sel_edge] = True
        # Hook each component to the opposite endpoint's root of its
        # chosen edge, then break the mutual (2-cycle) hooks toward the
        # smaller root so the next collapse terminates.
        other = np.where(ra[sel_edge] == sel_comp, rb[sel_edge], ra[sel_edge])
        parent = roots
        parent[sel_comp] = other
        two_cycle = (parent[parent] == node_ids) & (parent != node_ids)
        fix = two_cycle & (node_ids < parent)
        parent[fix] = node_ids[fix]
    return order[selected[order]]


def _edge_columns(edges: Sequence["CCEdge"]) -> Tuple[np.ndarray, ...]:
    """(cu, cv, weight, key u, key v) columns of a :class:`CCEdge` list."""
    n = len(edges)
    return (
        np.fromiter((e.cu for e in edges), np.int64, n),
        np.fromiter((e.cv for e in edges), np.int64, n),
        np.fromiter((e.key[0] for e in edges), np.float64, n),
        np.fromiter((e.key[1] for e in edges), np.int64, n),
        np.fromiter((e.key[2] for e in edges), np.int64, n),
    )


def cc_local_msf_columnar(
    edges: Sequence["CCEdge"], net: Optional["Network"] = None
) -> List["CCEdge"]:
    """Vectorized :func:`repro.cclique.engines._cc_local_msf`: the
    one-group call of :func:`grouped_local_msf`.

    Same output list (same objects, same order).  ``net`` only keeps the
    scalar function's signature: the kernel sends nothing.
    """
    rows = grouped_local_msf(np.zeros(len(edges), dtype=np.int64), *_edge_columns(edges))
    return [edges[i] for i in rows.tolist()]


class CCEdgeTable:
    """One machine's contracted edges as columns plus the object list."""

    __slots__ = ("objs", "cu", "cv", "rank")

    def __init__(self, edges: Sequence["CCEdge"]) -> None:
        self.objs: List["CCEdge"] = list(edges)
        self.cu, self.cv, w, x, y = _edge_columns(self.objs)
        self.rank = _rank(np.lexsort((self.cv, self.cu, y, x, w)))

    def min_outgoing(self, roots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(components, rows) of the min-rank outgoing edge per component.

        ``roots`` maps super-vertex id to its current dense root index.
        Rank order is the full :class:`CCEdge` order the scalar scan's
        ``e < cur`` uses, so the winning row is the same edge object.
        """
        return _min_rank_per_component(roots[self.cu], roots[self.cv], self.rank)


def cc_min_outgoing_columnar(
    net: "Network",
    local_edges: Sequence[Sequence["CCEdge"]],
    roots: np.ndarray,
) -> Dict[int, List[Optional["CCEdge"]]]:
    """Columnar twin of :func:`repro.cclique.engines._cc_min_outgoing`.

    Each machine's list is ranked once per phase; Borůvka on n'
    super-vertices runs O(log n') phases.
    """
    per_query: Dict[int, List[Optional["CCEdge"]]] = {
        c: [None] * net.k for c in np.unique(roots).tolist()
    }
    for m, edges in enumerate(local_edges):
        table = CCEdgeTable(edges)
        comps, rows = table.min_outgoing(roots)
        for c, r in zip(comps.tolist(), rows.tolist()):
            per_query[c][m] = table.objs[r]
    return per_query
