"""The grouped local-MSF kernel of §6.2 step 3.

Step 3 of :func:`repro.core.batch_deletion.batch_delete` has every
machine delete cycles among its deletion candidates.  The scan moves no
words, so :func:`grouped_local_msf` runs it for all machines at once, on
both engines, and returns each machine's survivors in the order the
scalar scan (:func:`repro.cclique.engines._cc_local_msf`) accepts them.
The contracted-clique engines themselves run that scalar scan: they see
at most k+1 super-vertices.

The kernel runs Borůvka over *sort ranks*: rows get their position in
the scalar path's sort order (``(group, key, cu, cv)``, stable) as a
unique integer priority, and per-component minimum selection over ranks
is an ``np.lexsort`` + group-first pass per round.  Super-vertex ids are
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

from typing import Tuple

import numpy as np


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
