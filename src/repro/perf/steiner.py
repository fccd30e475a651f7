"""Batched M′ membership tests for the §6.1 addition protocol.

Steps 3 and 5 of :func:`repro.core.batch_addition.batch_add` test every
local MST edge of an affected tour for membership in the Steiner tree M′
(:func:`repro.core.decomposition.in_m_prime` — two bisects per edge).
The reference path runs the test edge by edge; these helpers run it for
a whole tour at once — two ``np.searchsorted`` calls over the tour's
label columns (:meth:`~repro.core.state.MachineStateBase.tour_columns`,
read in place on a columnar instance) — and hand back only the members, so the per-edge Python work that remains (path
matching, degree counting) touches the small Steiner slice instead of
the whole machine.  The membership predicate is evaluated on the exact
same ``(e_min, e_max, sorted entries)`` inputs as the scalar function,
so the surviving edge sets are identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.euler.tour import ETEdge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import MachineStateBase


def m_prime_members(
    state: "MachineStateBase", tid: int, entries: Sequence[int]
) -> List[Tuple[ETEdge, Tuple[int, int]]]:
    """This tour's M′-member MST edges as ``(ete, (e_min, e_max))`` rows.

    ``entries`` must be the tour's sorted A-entry values (the protocols
    keep them sorted), matching ``in_m_prime(..., assume_sorted=True)``.
    Only the members become :class:`ETEdge` objects.
    """
    if len(entries) < 2:
        return []
    u, v, w, t1, t2 = state.tour_columns(tid)
    if not u.shape[0]:
        return []
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    ent = np.asarray(entries, dtype=np.int64)
    cnt = np.searchsorted(ent, hi, side="right") - np.searchsorted(ent, lo, side="left")
    member = np.flatnonzero((cnt >= 1) & (cnt <= len(entries) - 1))
    return [
        (ETEdge(a, b, wt, x1, x2, tid), (l, h))
        for a, b, wt, x1, x2, l, h in zip(
            u[member].tolist(), v[member].tolist(), w[member].tolist(),
            t1[member].tolist(), t2[member].tolist(),
            lo[member].tolist(), hi[member].tolist(),
        )
    ]


def steiner_degrees(
    state: "MachineStateBase", eligible: Mapping[int, Sequence[int]]
) -> Dict[int, int]:
    """Per-vertex count of incident M′ edges, over all eligible tours.

    Counts both endpoints of every member edge; the caller filters to
    the vertices it cares about (B-anchor candidates are owned, non-A
    vertices) — extra keys are harmless.
    """
    deg: Dict[int, int] = {}
    for tid, entries in eligible.items():
        for ete, _labels in m_prime_members(state, tid, entries):
            deg[ete.u] = deg.get(ete.u, 0) + 1
            deg[ete.v] = deg.get(ete.v, 0) + 1
    return deg
