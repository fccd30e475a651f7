"""The Borůvka initialisers' min-outgoing-edge scan, columnar.

The two initialisers — :func:`repro.core.init_build.distributed_init`
(k-machine, Theorem 5.8) and :func:`repro.mpc.init_mpc.mpc_init` (MPC,
Theorem 8.1) — are written once, for both engines.  The one step whose
local computation depends on the engine is step 1 of a phase, each
machine's minimum outgoing edge per component
(:func:`repro.core.init_build.min_outgoing_queries`).  The reference
engine walks each machine's graph-edge dict; on the fast path:

* each machine's slice of the resident graph-edge columns is ranked
  **once per init** by the global key (:class:`GraphEdgeTable`,
  :func:`scan_tables_columnar`);
* the per-component minimum outgoing edge of a machine is one stable
  single-key sort + group-first pass over that ranking
  (:func:`min_outgoing_rows`), fed by the phase's one
  :meth:`~repro.graphs.dsu.ArrayDSU.root_indices` pass.

:func:`min_outgoing_queries_columnar` turns the winning rows into the
same Python-scalar payloads in the same (query, machine) slots as the
scalar scan, so the batched min-query, the answer fold, the unions and
the Lemma 5.9 link chunks that follow are the same code on both
engines.  Nothing here sends; ``tests/perf`` compares the two engines'
transcripts, digests and machine state under ``REPRO_STRICT=1``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.core.state import MachineStateBase
    from repro.sim.network import Network


class GraphEdgeTable:
    """One machine's graph edges as parallel columns, ranked once per init.

    ``u``/``v`` are the stored (normalized, u < v) endpoint ids, ``w``
    the weights; ``ui``/``vi`` are the endpoints' dense indices into the
    init's sorted vertex-id array, precomputed so each phase's root
    lookup is a pure ``take``.  ``by_rank`` orders the rows by the
    global key ``(w, u, v)`` — the table never changes during an init,
    so the expensive three-key lexsort is paid once and every phase's
    min-reduction degrades to a single-key stable sort.  The table is a
    slice of the resident graph-edge columns (:meth:`of_machine`), whose
    row order matters only for tie-breaking, and ties are impossible:
    ``(w, u, v)`` repeats nowhere within one machine's edges.
    """

    __slots__ = ("u", "v", "w", "ui", "vi", "by_rank")

    @classmethod
    def of_machine(cls, fleet, m: int, ids: np.ndarray) -> "GraphEdgeTable":
        """Machine ``m``'s rows of the resident fleet graph-edge columns."""
        ng = fleet.ng
        rows = np.flatnonzero(fleet.galive[:ng] & (fleet.gmid[:ng] == m))
        table = cls.__new__(cls)
        table.u, table.v, table.w = fleet.gu[rows], fleet.gv[rows], fleet.gw[rows]
        table.ui = np.searchsorted(ids, table.u)
        table.vi = np.searchsorted(ids, table.v)
        table.by_rank = np.lexsort((table.v, table.u, table.w))
        return table


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


def scan_tables_columnar(
    net: "Network",
    states: Sequence["MachineStateBase"],
    ids: np.ndarray,
) -> List[GraphEdgeTable]:
    """Columnar twin of :func:`repro.core.init_build.scan_tables`: each
    machine's resident graph-edge rows, ranked once per init."""
    fleet = states[0].fleet  # type: ignore[attr-defined]
    return [GraphEdgeTable.of_machine(fleet, st.mid, ids) for st in states]


def min_outgoing_queries_columnar(
    net: "Network",
    tables: Sequence[GraphEdgeTable],
    ids: np.ndarray,
    roots: np.ndarray,
) -> Dict[int, List[Optional[Tuple]]]:
    """Columnar twin of :func:`repro.core.init_build.min_outgoing_queries`.

    A component's representative is the id at its dense root index, so
    the winning rows go straight into the representatives' slots.
    """
    per_query: Dict[int, List[Optional[Tuple]]] = {
        r: [None] * net.k for r in ids[np.unique(roots)].tolist()
    }
    for mid, table in enumerate(tables):
        comps, rows = min_outgoing_rows(table, roots)
        us = table.u[rows].tolist()
        vs = table.v[rows].tolist()
        ws = table.w[rows].tolist()
        for r, u, v, w in zip(ids[comps].tolist(), us, vs, ws):
            per_query[r][mid] = ((w, u, v), u, v)
    return per_query
