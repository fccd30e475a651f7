"""Vectorized local kernels for contracted CONGESTED-CLIQUE instances (§6.2).

Two scalar hot paths in :mod:`repro.cclique.engines` move no words but
dominate the wall clock of a contracted-instance solve:

* :func:`repro.cclique.engines._cc_local_msf` — machine-local cycle
  deletion, a ``sorted`` + per-edge dict-DSU scan (run by every engine,
  several times per solve on the merge-and-filter paths);
* :func:`repro.cclique.engines._cc_min_outgoing` — the Borůvka engine's
  per-phase candidate scan, where every machine walks its whole
  :class:`CCEdge` list.

Above the ``VECTOR_MIN_ROWS`` crossover a fast-path network runs both as
NumPy passes with **identical observable results**: the same MSF edge
objects in the same order, and the same ``CCEdge`` objects in the same
(query, machine) slots of the Borůvka query table.  The engines
themselves, and everything they send, are written once in
:mod:`repro.cclique.engines`.

The local-MSF kernel runs Borůvka over *sort ranks*: edges get their
position in the scalar path's sort order (``(key, cu, cv)``, stable) as
a unique integer priority, and per-component minimum selection over
ranks is an ``np.lexsort`` + group-first pass per round.  With unique
priorities the greedy (Kruskal) forest and the Borůvka forest are the
same unique MSF, so the selected index set equals the scalar scan's
accepted set — returned in rank order, exactly like the scalar append
order.  Duplicate rows (the §6.2 reduction sends an edge to both
endpoint machines, so merged lists can repeat an edge) tie on every
compared field; stable ranking keeps the first occurrence, matching the
scalar scan's strict-``<`` tie-break.
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


def _edge_columns(
    edges: Sequence["CCEdge"],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cu, cv, rank) columns; rank is the stable ``sorted(edges)`` position."""
    n = len(edges)
    kw = np.fromiter((e.key[0] for e in edges), np.float64, n)
    ku = np.fromiter((e.key[1] for e in edges), np.int64, n)
    kv = np.fromiter((e.key[2] for e in edges), np.int64, n)
    cu = np.fromiter((e.cu for e in edges), np.int64, n)
    cv = np.fromiter((e.cv for e in edges), np.int64, n)
    order = np.lexsort((cv, cu, kv, ku, kw))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return cu, cv, rank


def cc_local_msf_columnar(
    edges: Sequence["CCEdge"], net: Optional["Network"] = None
) -> List["CCEdge"]:
    """Vectorized :func:`repro.cclique.engines._cc_local_msf`.

    Same output list (same objects, same order) computed as rank-priority
    Borůvka instead of a sorted scalar Kruskal scan.  ``net`` only keeps
    the scalar function's signature: the kernel sends nothing.
    """
    n = len(edges)
    if n == 0:
        return []
    cu, cv, rank = _edge_columns(edges)
    # Compact the super-vertex ids touched by this list.
    nodes, idx = np.unique(np.concatenate((cu, cv)), return_inverse=True)
    a, b = idx[:n], idx[n:]
    parent = np.arange(nodes.shape[0], dtype=np.int64)
    selected = np.zeros(n, dtype=bool)
    node_ids = np.arange(nodes.shape[0], dtype=np.int64)
    while True:
        roots = _collapse(parent)
        ra, rb = roots[a], roots[b]
        cross = np.flatnonzero(ra != rb)
        if cross.size == 0:
            break
        # Minimum-rank cross edge per component (each edge is a candidate
        # for both endpoint components).
        rows = np.concatenate((cross, cross))
        comp = np.concatenate((ra[cross], rb[cross]))
        order = np.lexsort((rank[rows], comp))
        comp_s = comp[order]
        rows_s = rows[order]
        first = np.ones(comp_s.size, dtype=bool)
        first[1:] = comp_s[1:] != comp_s[:-1]
        sel_edge = rows_s[first]
        sel_comp = comp_s[first]
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
    sel_idx = np.flatnonzero(selected)
    sel_idx = sel_idx[np.argsort(rank[sel_idx], kind="stable")]
    return [edges[i] for i in sel_idx.tolist()]


class CCEdgeTable:
    """One machine's contracted edges as columns plus the object list."""

    __slots__ = ("objs", "cu", "cv", "rank")

    def __init__(self, edges: Sequence["CCEdge"]) -> None:
        self.objs: List["CCEdge"] = list(edges)
        self.cu, self.cv, self.rank = _edge_columns(self.objs)

    def min_outgoing(self, roots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(components, rows) of the min-rank outgoing edge per component.

        ``roots`` maps super-vertex id to its current dense root index.
        Rank order is the full :class:`CCEdge` order the scalar scan's
        ``e < cur`` uses, so the winning row is the same edge object.
        """
        ru = roots[self.cu]
        rv = roots[self.cv]
        keep = np.flatnonzero(ru != rv)
        if keep.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rows = np.concatenate((keep, keep))
        comp = np.concatenate((ru[keep], rv[keep]))
        order = np.lexsort((self.rank[rows], comp))
        comp_s = comp[order]
        rows_s = rows[order]
        first = np.ones(comp_s.size, dtype=bool)
        first[1:] = comp_s[1:] != comp_s[:-1]
        return comp_s[first], rows_s[first]


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
