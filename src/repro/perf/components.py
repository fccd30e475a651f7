"""Batched §6.2 deletion candidates over the resident columns.

Steps 2–3 of :func:`repro.core.batch_deletion.batch_delete` label every
surviving graph edge of every machine with the bracket components its
endpoints fell into, then keep the edges that cross.  The reference
path answers one vertex at a time with
:meth:`repro.euler.brackets.BracketComponents.component_of_vertex` — a
bisect plus a parent walk per call — over a sorted copy of each
machine's graph-edge dict.

On a columnar instance the answer comes from array passes over the
resident fleet columns (:mod:`repro.perf.columnar`): every vertex row's
component from its tour and its witness's lower label
(:func:`component_codes`, through
:func:`repro.euler.vectorized.innermost_intervals`), then every
machine's graph-edge rows pick up their endpoints' codes by row index,
ordered by ``(u, v)`` exactly as the sorted dict scan is.  Rows the
kernel cannot decide — a missing witness, a witness that *is* a deleted
edge (Figure 4's boundary-value rule), or a label the scalar validator
would reject — are coded :data:`FALLBACK` and resolved once per vertex by
the scalar ``comp_of``.  Only the crossing rows are sorted and turned
into candidates.  A machine where ``comp_of`` raises, or with an edge
that straddles an affected and an unaffected tour, runs the reference
scan, which raises there; so the candidates (same values, same order)
and the error behaviour (message text *and* raise order) match the
reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cclique.ccedge import CCEdge
from repro.errors import ProtocolError
from repro.euler.vectorized import innermost_intervals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import MachineStateBase
    from repro.euler.brackets import BracketComponents

#: Code of a vertex whose tour no deletion touched (``comp_of`` → None).
UNAFFECTED = -1
#: Code of a vertex the scalar ``comp_of`` must resolve (it may raise).
FALLBACK = -2

_TourArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
CompOf = Callable[["MachineStateBase", int], Optional[int]]
Scan = Callable[["MachineStateBase"], List[CCEdge]]


def tour_interval_arrays(
    brackets: Mapping[int, "BracketComponents"],
) -> Dict[int, _TourArrays]:
    """Array form (starts, ends, parents, sorted deleted labels) per tour."""
    out: Dict[int, _TourArrays] = {}
    for tid, bc in brackets.items():
        starts = np.array([a for a, _ in bc.intervals], dtype=np.int64)
        ends = np.array([b for _, b in bc.intervals], dtype=np.int64)
        parents = np.array(bc.parent, dtype=np.int64)
        deleted = np.sort(np.concatenate((starts, ends)), kind="stable")
        out[tid] = (starts, ends, parents, deleted)
    return out


def component_codes(
    tours: np.ndarray,
    wt1: np.ndarray,
    wt2: np.ndarray,
    walive: np.ndarray,
    brackets: Mapping[int, "BracketComponents"],
    comp_base: Mapping[int, int],
    arrays: Mapping[int, _TourArrays],
) -> np.ndarray:
    """Global component of every vertex row, or UNAFFECTED / FALLBACK.

    ``tours`` are the rows' tour ids and ``wt1``/``wt2``/``walive`` their
    witnesses' labels and liveness.
    """
    codes = np.full(tours.shape, UNAFFECTED, dtype=np.int64)
    for tid, bc in brackets.items():
        rows = np.flatnonzero(tours == tid)
        if not rows.size:
            continue
        codes[rows] = FALLBACK
        rows = rows[walive[rows]]
        starts, ends, parents, deleted = arrays[tid]
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
        if bool(good.any()):
            codes[rows[good]] = (
                comp_base[tid] + innermost_intervals(starts, ends, parents, wmin[good]) + 1
            )
    return codes


def deletion_candidates(
    states: Sequence["MachineStateBase"],
    brackets: Mapping[int, "BracketComponents"],
    comp_base: Mapping[int, int],
    comp_of: CompOf,
    scan: Scan,
) -> List[List[CCEdge]]:
    """Every machine's crossing graph edges, as ``scan`` — the reference
    per-machine scan over ``comp_of`` — lists them."""
    fleet = states[0].fleet  # type: ignore[attr-defined]
    nv, ng = fleet.nv, fleet.ng
    codes = component_codes(
        fleet.vtour[:nv], fleet.wt1[:nv], fleet.wt2[:nv], fleet.walive[:nv],
        brackets, comp_base, tour_interval_arrays(brackets),
    )
    live = np.flatnonzero(fleet.galive[:ng])
    ur, vr = fleet.gur[live], fleet.gvr[live]
    cx, cy = codes[ur], codes[vr]
    # Undecided vertices are resolved once each by the scalar comp_of.  On
    # a machine where that raises, or that stores an edge straddling an
    # affected and an unaffected tour, the reference scan raises: run it
    # there, so it raises what and where the reference does.
    replay = set()
    undecided = np.union1d(ur[cx == FALLBACK], vr[cy == FALLBACK])
    if undecided.size:
        resolved = np.full(undecided.shape[0], FALLBACK, dtype=np.int64)
        for j, (i, m, x) in enumerate(zip(
            undecided.tolist(), fleet.vmid[undecided].tolist(), fleet.vx[undecided].tolist()
        )):
            try:
                c = comp_of(states[m], x)
            except (ProtocolError, ValueError):  # re-raised by the scalar scan, in edge order
                replay.add(m)
                continue
            resolved[j] = UNAFFECTED if c is None else c
        for col, rows in ((cx, ur), (cy, vr)):
            hit = np.flatnonzero(col == FALLBACK)
            col[hit] = resolved[np.searchsorted(undecided, rows[hit])]
    gmid = fleet.gmid[live]
    replay.update(np.unique(gmid[(cx == UNAFFECTED) != (cy == UNAFFECTED)]).tolist())
    cross = np.flatnonzero((cx != UNAFFECTED) & (cx != cy))
    order = np.lexsort((fleet.gv[live[cross]], fleet.gu[live[cross]], gmid[cross]))
    cross = cross[order]
    bounds = np.searchsorted(gmid[cross], np.arange(len(states) + 1))
    xs, ys = fleet.gu[live[cross]].tolist(), fleet.gv[live[cross]].tolist()
    cxs, cys = cx[cross].tolist(), cy[cross].tolist()
    out: List[List[CCEdge]] = []
    for m, st in enumerate(states):
        if m in replay:
            out.append(scan(st))
            continue
        weights = st.graph_edges
        lo, hi = int(bounds[m]), int(bounds[m + 1])
        out.append([
            CCEdge.make(a, b, (weights[(x, y)], x, y), data=(x, y, weights[(x, y)]))
            for a, b, x, y in zip(cxs[lo:hi], cys[lo:hi], xs[lo:hi], ys[lo:hi])
        ])
    return out
