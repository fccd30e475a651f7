"""§6.2 deletion candidates as one table, on either storage.

Steps 2–3 of :func:`repro.core.batch_deletion.batch_delete` label every
surviving graph edge of every machine with the bracket components its
endpoints fell into, keep the edges that cross, and reduce each
machine's crossers to its local minimum spanning forest.  Both storages
hand the crossers over as one :class:`Candidates` table, ordered by
``(machine, x, y)``, and one grouped kernel
(:func:`repro.perf.cclique_columnar.grouped_local_msf`) keeps every
machine's survivors at once.

The dict storage fills the table from the reference scan, which
answers one vertex at a time with
:meth:`repro.euler.brackets.BracketComponents.component_of_vertex`
over a sorted copy of each machine's graph-edge dict
(:func:`scan_candidates`).  On a columnar instance the table comes from
array passes over the resident fleet columns
(:mod:`repro.perf.columnar`): every vertex row's component from its
tour and its witness's lower label (:func:`component_codes`: a
``searchsorted`` position among the tour's deleted labels, read through
the tour's gap table, :func:`gap_tables`), then every machine's
graph-edge rows pick up their endpoints' codes by row index.  Rows the
kernel cannot decide — a missing witness, a witness that *is* a deleted
edge (Figure 4's boundary-value rule), or a label the scalar validator
would reject — are coded :data:`FALLBACK` and resolved once per vertex
by the scalar ``comp_of``.  If ``comp_of`` raises on some machine, or
a machine stores an edge that straddles an affected and an unaffected
tour, the reference scan runs on every machine instead and raises what
and where the reference does; so the table (same rows, same order) and
the error behaviour (message text *and* raise order) match the
reference.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import MachineStateBase
    from repro.euler.brackets import BracketComponents

#: Code of a vertex whose tour no deletion touched (``comp_of`` → None).
UNAFFECTED = -1
#: Code of a vertex the scalar ``comp_of`` must resolve (it may raise).
FALLBACK = -2

CompOf = Callable[["MachineStateBase", int], Optional[int]]
#: One machine's crossing graph edges, in key order, as
#: ``(cu, cv, weight, x, y)`` rows with ``cu < cv``.
Scan = Callable[["MachineStateBase"], List[Tuple[int, int, float, int, int]]]


class Candidates(NamedTuple):
    """Every machine's crossing graph edges, in ``(machine, x, y)`` order:
    edge ``(x, y)`` of weight ``w`` stored on ``machine`` joins components
    ``cu < cv``."""

    machine: np.ndarray
    cu: np.ndarray
    cv: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray


_DTYPES = (np.int64, np.int64, np.int64, np.float64, np.int64, np.int64)


def scan_candidates(states: Sequence["MachineStateBase"], scan: Scan) -> Candidates:
    """The table from the reference scan of every machine, in machine order."""
    rows = [(m, *row) for m, st in enumerate(states) for row in scan(st)]
    cols = list(zip(*rows)) or [()] * len(_DTYPES)
    return Candidates(*(np.array(col, dtype=dt) for col, dt in zip(cols, _DTYPES)))


def gap_tables(
    brackets: Mapping[int, "BracketComponents"],
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Per tour, its sorted deleted labels and the component of each gap.

    Gap ``p`` holds the surviving labels with exactly ``p`` deleted labels
    below them.  Gap 0 is the root's region (component 0); the gap right
    after interval ``i``'s start lies inside it (component ``i + 1``), and
    the gap right after its end in the region around it (its parent's
    component), so sorting the labels with the component after each
    fills the table.
    """
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for tid, bc in brackets.items():
        d = len(bc.intervals)
        labels = np.array(
            [a for a, _ in bc.intervals] + [b for _, b in bc.intervals], dtype=np.int64
        )
        after = np.concatenate(
            (np.arange(1, d + 1, dtype=np.int64), np.array(bc.parent, dtype=np.int64) + 1)
        )
        order = np.argsort(labels, kind="stable")
        out[tid] = (labels[order], np.concatenate(([0], after[order])))
    return out


def component_codes(
    tours: np.ndarray,
    wt1: np.ndarray,
    wt2: np.ndarray,
    walive: np.ndarray,
    brackets: Mapping[int, "BracketComponents"],
    comp_base: Mapping[int, int],
    tables: Mapping[int, Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Global component of every vertex row, or UNAFFECTED / FALLBACK.

    ``tours`` are the rows' tour ids and ``wt1``/``wt2``/``walive`` their
    witnesses' labels and liveness; ``tables`` are :func:`gap_tables`.
    """
    codes = np.full(tours.shape, UNAFFECTED, dtype=np.int64)
    for tid, bc in brackets.items():
        rows = np.flatnonzero(tours == tid)
        if not rows.size:
            continue
        codes[rows] = FALLBACK
        rows = rows[walive[rows]]
        deleted, gap = tables[tid]
        wmin = np.minimum(wt1[rows], wt2[rows])
        # The scalar path resolves a surviving witness through its lower
        # label alone (``component_of_label(labels[0])``), so only that
        # label's validity matters here.
        bad = (wmin < 0) | (wmin >= bc.size)
        pos = np.searchsorted(deleted, wmin)
        in_rng = pos < deleted.size
        hit = np.zeros(wmin.shape, dtype=bool)
        hit[in_rng] = deleted[pos[in_rng]] == wmin[in_rng]
        bad |= hit  # deleted-edge witnesses and corrupt labels alike
        good = ~bad
        codes[rows[good]] = comp_base[tid] + gap[pos[good]]
    return codes


def deletion_candidates(
    states: Sequence["MachineStateBase"],
    brackets: Mapping[int, "BracketComponents"],
    comp_base: Mapping[int, int],
    comp_of: CompOf,
    scan: Scan,
) -> Candidates:
    """The :class:`Candidates` table of a columnar fleet, as
    :func:`scan_candidates` over ``scan`` — the reference per-machine scan
    over ``comp_of`` — builds it."""
    fleet = states[0].fleet  # type: ignore[attr-defined]
    nv, ng = fleet.nv, fleet.ng
    codes = component_codes(
        fleet.vtour[:nv], fleet.wt1[:nv], fleet.wt2[:nv], fleet.walive[:nv],
        brackets, comp_base, gap_tables(brackets),
    )
    live = np.flatnonzero(fleet.galive[:ng])
    ur, vr = fleet.gur[live], fleet.gvr[live]
    cx, cy = codes[ur], codes[vr]
    # Undecided vertices are resolved once each by the scalar comp_of.
    undecided = np.union1d(ur[cx == FALLBACK], vr[cy == FALLBACK])
    if undecided.size:
        resolved = np.full(undecided.shape[0], FALLBACK, dtype=np.int64)
        for j, (m, x) in enumerate(zip(
            fleet.vmid[undecided].tolist(), fleet.vx[undecided].tolist()
        )):
            try:
                c = comp_of(states[m], x)
            except (ProtocolError, ValueError):
                # The reference scan raises on machine m: run it.
                return scan_candidates(states, scan)
            resolved[j] = UNAFFECTED if c is None else c
        for col, rows in ((cx, ur), (cy, vr)):
            hit = np.flatnonzero(col == FALLBACK)
            col[hit] = resolved[np.searchsorted(undecided, rows[hit])]
    if bool(((cx == UNAFFECTED) != (cy == UNAFFECTED)).any()):
        # An edge straddles an affected and an unaffected tour: the
        # reference scan raises there.
        return scan_candidates(states, scan)
    cross = np.flatnonzero((cx != UNAFFECTED) & (cx != cy))
    g = live[cross]
    mid, x, y = fleet.gmid[g], fleet.gu[g], fleet.gv[g]
    order = np.lexsort((y, x, mid))
    a, b = cx[cross][order], cy[cross][order]
    g = g[order]
    return Candidates(
        mid[order], np.minimum(a, b), np.maximum(a, b), fleet.gw[g], x[order], y[order]
    )
