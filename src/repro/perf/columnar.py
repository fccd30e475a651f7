"""Columnar application of structural-update scripts (Lemma 5.9, fast).

The reference engine in :mod:`repro.core.scripts` applies a script of
:class:`~repro.core.scripts.CutStep` / ``LinkStep`` to each machine by
looping over every affected MST edge and every witness, calling the
scalar label transforms of :mod:`repro.euler.labels` one edge at a time.
That per-edge Python work dominates the simulator's wall clock (see
``benchmarks/bench_throughput.py``).

This module packs one machine's label state into parallel NumPy arrays
**once per structural batch**, applies every cut and link step with the
vectorized kernels of :mod:`repro.euler.vectorized`, and scatters the
result back.  The two mid-batch protocol exchanges — the witness repair
after cuts and the link parameter collection (Lemma 5.9's step 1 for
links) — read and write *through* the planes, so a single pack/scatter
cycle covers both homogeneous phases.  The step-by-step structure is
preserved exactly: classification of tracked vertices happens in the
same (pre-relabel) coordinates, witness invalidation and re-picking
follow the same rules with the same tie-breaks, and the wire protocol
(request order, payloads, word counts) is byte-identical — so both the
resulting machine state and the charge transcript match the scalar
engine's, field for field.  The equivalence tests in ``tests/perf``
verify both.

Layout (per machine, per batch):

* **edge columns** over the machine's MST edges: endpoints ``eu``/``ev``
  (normalized, as stored), weight ``ew``, labels ``et1``/``et2``, tour
  ``etour``, liveness ``ealive``; link steps append rows into
  preallocated capacity;
* **vertex columns** over the machine's tracked vertices: vertex id
  ``vx``, tour ``vtour`` (``-1`` = unknown), and the
  witness copy ``wu``/``wv``/``ww``/``wt1``/``wt2``/``wtour`` with
  liveness ``walive``.

Scatter writes back only rows whose columns changed (pack keeps pristine
copies), so machines far from the action pay almost nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.euler.labels import JoinSpec, SplitSpec, reroot_label
from repro.euler.tour import ETEdge
from repro.euler.vectorized import (
    join_m1_labels,
    join_m2_labels,
    reroot_labels,
    split_labels,
)
from repro.graphs.graph import normalize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.core.scripts import CutStep, LinkStep
    from repro.core.state import MachineState
    from repro.sim.network import Network
    from repro.sim.partition import VertexPartition


class MachineLabelPlane:
    """One machine's Euler label state, packed for one structural batch.

    Only the *affected* slice is packed: rows whose tour is in
    ``a_orig`` (the original tours any script step can touch — fresh
    mid-batch tours are always derived from these) plus the update
    endpoints ``eps`` (which may be isolated, i.e. tourless).  Rows of
    unaffected tours are provably untouched by every step — the scalar
    engine filters all its transforms by tour id — so skipping them
    changes nothing and makes pack/scatter O(affected), not O(machine).
    """

    def __init__(
        self,
        state: "MachineState",
        a_orig: Set[int],
        eps: Set[int],
        reserve: int = 0,
    ) -> None:
        self.state = state
        self._a_orig = a_orig
        self._frozen = False
        mst = state.mst
        keys: List[Tuple[int, int]] = []
        for tid in sorted(a_orig):
            keys.extend(state.mst_keys_in_tour(tid))
        keys.sort()
        n0 = len(keys)
        # Link steps append at most one row each; capacity grows by
        # doubling, so views of [:n_rows] stay cheap.
        self._capacity = n0
        self.keys = keys
        self.objs: List[ETEdge] = [mst[k] for k in keys]
        self.erow: Dict[Tuple[int, int], int] = dict(zip(self.keys, range(n0)))
        objs = self.objs
        # One flat int list per column: np.array on a list of Python ints
        # is several times faster than converting a list of tuples.
        self.eu = np.array([e.u for e in objs], dtype=np.int64)
        self.ev = np.array([e.v for e in objs], dtype=np.int64)
        self.et1 = np.array([e.t_uv for e in objs], dtype=np.int64)
        self.et2 = np.array([e.t_vu for e in objs], dtype=np.int64)
        self.etour = np.array([e.tour for e in objs], dtype=np.int64)
        self.ew = np.array([e.weight for e in objs], dtype=np.float64)
        self.ealive = np.ones(n0, dtype=bool)
        self.n_rows = n0
        self.dead: List[Tuple[int, int]] = []
        self.appended: List[int] = []
        # Pristine copies: scatter writes back only rows that changed.
        self._et1_0 = self.et1.copy()
        self._et2_0 = self.et2.copy()
        self._etour_0 = self.etour.copy()

        # tour_of's keys are exactly the tracked set (track() seeds both);
        # insertion order is deterministic, and no result below depends on
        # row order, so the selection order stands in for a sort.  The
        # filter runs vectorized: tourless rows map to -1, which never
        # matches a_orig (tour ids are >= 0), so they survive only
        # through the endpoint test — same rule as the scalar filter.
        tof = state.tour_of
        ntr = len(tof)
        xs_all = np.fromiter(tof.keys(), np.int64, ntr)
        ts_all = np.fromiter(
            (-1 if t is None else t for t in tof.values()), np.int64, ntr
        )
        mask = np.isin(ts_all, np.fromiter(a_orig, np.int64, len(a_orig)))
        if eps:
            mask |= np.isin(xs_all, np.fromiter(eps, np.int64, len(eps)))
        idx = np.flatnonzero(mask)
        nv = idx.size
        self.vx = xs_all[idx]
        self.vtour = ts_all[idx]
        self.vx_list: List[int] = self.vx.tolist()
        self.vrow: Dict[int, int] = dict(zip(self.vx_list, range(nv)))
        witness = state.witness
        # The init protocols can know a vertex's tour before any witness
        # entry exists for it; a missing entry behaves like None.
        wlist = [witness.get(x) for x in self.vx_list]
        self.wobjs = wlist
        # Rows whose witness *object* was swapped (repick/repair/link fill)
        # scatter as fresh copies; surviving originals mutate in place,
        # exactly like the scalar transforms.
        self.wreplaced = np.zeros(nv, dtype=bool)
        self.walive = np.array([w is not None for w in wlist], dtype=bool)
        self.wu = np.array([0 if w is None else w.u for w in wlist], dtype=np.int64)
        self.wv = np.array([0 if w is None else w.v for w in wlist], dtype=np.int64)
        self.wt1 = np.array(
            [0 if w is None else w.t_uv for w in wlist], dtype=np.int64
        )
        self.wt2 = np.array(
            [0 if w is None else w.t_vu for w in wlist], dtype=np.int64
        )
        self.wtour = np.array(
            [0 if w is None else w.tour for w in wlist], dtype=np.int64
        )
        self.ww = np.array(
            [0.0 if w is None else w.weight for w in wlist], dtype=np.float64
        )
        self._vtour_0 = self.vtour.copy()
        # Endpoints/weight of an un-replaced witness never change, so the
        # change mask only needs liveness and the transformed columns.
        self._w_0 = (
            self.walive.copy(), self.wt1.copy(), self.wt2.copy(), self.wtour.copy()
        )
        # Superset of the tour ids appearing anywhere in this plane's
        # columns.  A step whose tours are all absent provably moves no
        # local row, so its masked transforms can be skipped wholesale —
        # during initialisation most (machine, step) pairs are exactly
        # that.  The set only ever grows (merged-away ids linger), which
        # costs missed skips but can never skip real work.
        tours = set(np.unique(self.etour[:n0]).tolist())
        tours.update(np.unique(self.vtour).tolist())
        tours.discard(-1)
        if nv and bool(self.walive.any()):
            tours.update(np.unique(self.wtour[self.walive]).tolist())
        self._tours = tours
        # Pre-size the edge columns for every row this batch can append
        # (one per hosted link): once a fleet applier adopts the columns
        # as views into stacked parents, reallocation would silently
        # detach them, so growth happens up front and is then frozen.
        if reserve:
            self._grow(reserve)

    # ------------------------------------------------------------------
    # edge-row helpers
    # ------------------------------------------------------------------
    def _grow(self, extra: int) -> None:
        need = self.n_rows + extra
        if need <= self._capacity:
            return
        if self._frozen:
            raise ProtocolError(
                f"machine {self.state.mid}: plane columns are fleet-adopted "
                f"but need {need} rows (capacity {self._capacity})"
            )
        new_cap = max(need, 2 * self._capacity, 8)
        for name in ("eu", "ev", "et1", "et2", "etour"):
            old = getattr(self, name)
            arr = np.zeros(new_cap, dtype=np.int64)
            arr[: self.n_rows] = old[: self.n_rows]
            setattr(self, name, arr)
        ew = np.zeros(new_cap, dtype=np.float64)
        ew[: self.n_rows] = self.ew[: self.n_rows]
        self.ew = ew
        alive = np.zeros(new_cap, dtype=bool)
        alive[: self.n_rows] = self.ealive[: self.n_rows]
        self.ealive = alive
        self._capacity = new_cap

    def _append_row(
        self, u: int, v: int, weight: float, t_uv: int, t_vu: int, tour: int
    ) -> int:
        self._grow(1)
        r = self.n_rows
        self.eu[r] = u
        self.ev[r] = v
        self.ew[r] = weight
        self.et1[r] = t_uv
        self.et2[r] = t_vu
        self.etour[r] = tour
        self.ealive[r] = True
        self.n_rows = r + 1
        self.keys.append((u, v))
        self.erow[(u, v)] = r
        self.appended.append(r)
        return r

    def _pick_witness_row(self, x: int) -> Optional[int]:
        """Row of x's min-key live incident MST edge (pick_witness's rule)."""
        n = self.n_rows
        inc = np.flatnonzero(
            ((self.eu[:n] == x) | (self.ev[:n] == x)) & self.ealive[:n]
        )
        if inc.size == 0:
            return None
        if inc.size == 1:
            return int(inc[0])
        # min by ETEdge.key == (weight, u, v); lexsort's last key is primary
        order = np.lexsort((self.ev[inc], self.eu[inc], self.ew[inc]))
        return int(inc[order[0]])

    def _set_witness_from_row(self, i: int, r: int) -> None:
        self.wu[i] = self.eu[r]
        self.wv[i] = self.ev[r]
        self.ww[i] = self.ew[r]
        self.wt1[i] = self.et1[r]
        self.wt2[i] = self.et2[r]
        self.wtour[i] = self.etour[r]
        self.walive[i] = True
        self.wreplaced[i] = True

    # ------------------------------------------------------------------
    # plane accessors for the mid-batch protocol exchanges
    # ------------------------------------------------------------------
    def tour_id_of(self, x: int) -> Optional[int]:
        """Current tour id of ``x`` (post-transform), ``None`` if unknown."""
        i = self.vrow.get(x)
        if i is None:
            return self.state.tour_of.get(x)
        t = int(self.vtour[i])
        return None if t == -1 else t

    def witness_snapshot(self, x: int) -> Optional[Tuple]:
        """Wire form of x's current witness (plain Python scalars)."""
        i = self.vrow[x]
        if not self.walive[i]:
            return None
        return (
            int(self.wu[i]), int(self.wv[i]), float(self.ww[i]),
            int(self.wt1[i]), int(self.wt2[i]), int(self.wtour[i]),
        )

    def repick_home_witness(self, x: int) -> None:
        """Mirror of the repair preamble: re-pick iff the witness died."""
        i = self.vrow[x]
        if self.walive[i]:
            return
        r = self._pick_witness_row(x)
        if r is not None:
            self._set_witness_from_row(i, r)

    def install_witness(
        self, x: int, snap: Optional[Sequence], tid: Optional[int]
    ) -> None:
        """Apply one repair broadcast (no-op unless ``x`` is tracked here)."""
        i = self.vrow.get(x)
        if i is None:
            return
        if snap is None:
            self.walive[i] = False
        else:
            u, v, w, t1, t2, tour = snap
            self.wu[i], self.wv[i], self.ww[i] = u, v, w
            self.wt1[i], self.wt2[i], self.wtour[i] = t1, t2, tour
            self.walive[i] = True
            self.wreplaced[i] = True
            self._tours.add(tour)
        self.vtour[i] = tid if tid is not None else -1
        if tid is not None:
            self._tours.add(tid)

    def outgoing_value(self, x: int) -> Optional[int]:
        """Min label departing ``x`` (MachineState.outgoing_value's rule)."""
        n = self.n_rows
        alive = self.ealive[:n]
        best: Optional[int] = None
        dep1 = alive & (self.eu[:n] == x)
        if bool(dep1.any()):
            best = int(self.et1[:n][dep1].min())
        dep2 = alive & (self.ev[:n] == x)
        if bool(dep2.any()):
            m2 = int(self.et2[:n][dep2].min())
            if best is None or m2 < best:
                best = m2
        return best

    # ------------------------------------------------------------------
    # vectorized label transforms
    # ------------------------------------------------------------------
    @staticmethod
    def _split_masked(
        t1: np.ndarray, t2: np.ndarray, tours: np.ndarray, mask: np.ndarray,
        spec: SplitSpec,
    ) -> None:
        sub1 = t1[mask]
        sub2 = t2[mask]
        new_tours1, new1 = split_labels(sub1, spec)
        new_tours2, new2 = split_labels(sub2, spec)
        if bool((new_tours1 != new_tours2).any()):
            raise ProtocolError("edge straddles a split; labels corrupt")
        t1[mask] = new1
        t2[mask] = new2
        tours[mask] = new_tours1

    @staticmethod
    def _join_masked(
        t1: np.ndarray, t2: np.ndarray, tours: np.ndarray, alive: np.ndarray,
        spec: JoinSpec,
    ) -> None:
        m1 = alive & (tours == spec.tour1)
        if bool(m1.any()):
            t1[m1] = join_m1_labels(t1[m1], spec)
            t2[m1] = join_m1_labels(t2[m1], spec)
        m2 = alive & (tours == spec.tour2)
        if bool(m2.any()):
            t1[m2] = join_m2_labels(t1[m2], spec)
            t2[m2] = join_m2_labels(t2[m2], spec)
            tours[m2] = spec.tour1

    # ------------------------------------------------------------------
    # one cut step (mirrors repro.core.scripts.apply_cut_step)
    # ------------------------------------------------------------------
    def cut_step(self, step: "CutStep") -> None:
        spec = step.spec
        cu, cv = normalize(*step.edge)
        if spec.old_tour not in self._tours:
            # No row of the split tour lives here — not an edge, not a
            # live witness, not a tracked vertex (each would have put
            # ``old_tour`` into ``_tours``) — so only the replicated
            # size bookkeeping applies on this machine.
            self.state.tour_size[spec.old_tour] = spec.root_side_size
            self.state.tour_size[spec.inside_tour] = spec.inside_size
            return
        self._tours.add(spec.inside_tour)
        n = self.n_rows
        et1, et2 = self.et1[:n], self.et2[:n]
        etour, ealive = self.etour[:n], self.ealive[:n]

        # Witnesses that *are* the cut edge (endpoint comparison, like
        # ``normalize(w.u, w.v) == cut_key`` in the scalar engine).
        w_is_cut = (
            self.walive
            & (np.minimum(self.wu, self.wv) == cu)
            & (np.maximum(self.wu, self.wv) == cv)
        )

        # 1. Classify tracked vertices of the split tour in old coordinates.
        sel = self.vtour == spec.old_tour
        new_vtour: Optional[np.ndarray] = None
        known = sel  # overwritten below; pre-kill liveness matters
        fallback_vals: Dict[int, int] = {}
        if bool(sel.any()):
            head = step.snapshot.head_at(spec.e_min)
            w_min = np.minimum(self.wt1, self.wt2)
            w_max = np.maximum(self.wt1, self.wt2)
            inside = np.where(
                w_is_cut,
                self.vx == head,
                (spec.e_min < w_min) & (w_max < spec.e_max),
            )
            known = sel & self.walive
            new_vtour = np.where(inside, spec.inside_tour, spec.old_tour)
            for i in np.flatnonzero(sel & ~self.walive).tolist():
                x = self.vx_list[i]
                if x not in self.state.vertices:
                    fallback_vals[i] = -1  # unknown until the repair broadcast
                    continue
                r = self._pick_witness_row(x)
                if r is None:
                    raise ProtocolError(
                        f"machine {self.state.mid}: owned vertex {x} in tour "
                        f"{spec.old_tour} has no incident MST edge"
                    )
                if (min(int(self.eu[r]), int(self.ev[r])),
                        max(int(self.eu[r]), int(self.ev[r]))) == (cu, cv):
                    is_inside = step.snapshot.head_at(spec.e_min) == x
                else:
                    r_min = min(int(self.et1[r]), int(self.et2[r]))
                    r_max = max(int(self.et1[r]), int(self.et2[r]))
                    is_inside = spec.e_min < r_min and r_max < spec.e_max
                fallback_vals[i] = spec.inside_tour if is_inside else spec.old_tour

        # 2. Remove the cut edge; invalidate witnesses that pointed at it.
        row = self.erow.get((cu, cv))
        if row is not None and self.ealive[row]:
            self.ealive[row] = False
            self.dead.append((cu, cv))
        self.walive &= ~w_is_cut

        # 3. Relabel surviving MST edges and witnesses of the split tour.
        edge_mask = ealive & (etour == spec.old_tour)
        if bool(edge_mask.any()):
            self._split_masked(et1, et2, etour, edge_mask, spec)
        wit_mask = self.walive & (self.wtour == spec.old_tour)
        if bool(wit_mask.any()):
            self._split_masked(self.wt1, self.wt2, self.wtour, wit_mask, spec)

        # 4. Tour bookkeeping.
        self.state.tour_size[spec.old_tour] = spec.root_side_size
        self.state.tour_size[spec.inside_tour] = spec.inside_size
        if new_vtour is not None:
            self.vtour[known] = new_vtour[known]
            for i, tid in fallback_vals.items():
                self.vtour[i] = tid

        # 5. Owned endpoints whose witness died can re-pick locally for free.
        for x in (cu, cv):
            i = self.vrow.get(x)
            if i is None or x not in self.state.vertices:
                continue
            if self.walive[i] or self.vtour[i] == -1:
                continue
            r = self._pick_witness_row(x)
            if r is not None:
                self._set_witness_from_row(i, r)

    # ------------------------------------------------------------------
    # one link step (mirrors repro.core.scripts.apply_link_step)
    # ------------------------------------------------------------------
    def link_step(self, step: "LinkStep") -> None:
        spec = step.spec
        n = self.n_rows

        # 1. Relabel existing MST edges and witnesses.  Skipped when this
        # plane holds no row of either tour (see ``_tours``): the M2
        # relabel and the M1 insertion shift are both empty then, as is
        # the vertex-side tour rename below.
        if spec.tour1 in self._tours or spec.tour2 in self._tours:
            self._join_masked(
                self.et1[:n], self.et2[:n], self.etour[:n], self.ealive[:n], spec
            )
            self._join_masked(self.wt1, self.wt2, self.wtour, self.walive, spec)
            self.vtour[self.vtour == spec.tour2] = spec.tour1
            self._tours.add(spec.tour1)
        self.link_local(step)

    def link_local(self, step: "LinkStep") -> None:
        """Steps 2–4 of a link: the append / bookkeeping / witness-fill
        parts that are inherently per-machine.  The label joins (step 1)
        are applied by the caller — per plane in :meth:`link_step`, or
        once over the stacked fleet columns in :class:`_FleetLinkApplier`.
        """
        spec = step.spec
        u, v = step.edge
        lab_in, lab_out = spec.new_edge_labels

        # 2. Materialize the new edge if this machine hosts an endpoint.
        state = self.state
        if u in state.vertices or v in state.vertices:
            key = normalize(u, v)
            prior = self.erow.get(key)
            if prior is not None and self.ealive[prior]:
                raise ProtocolError(
                    f"machine {state.mid}: MST edge {key} already present"
                )
            self._append_row(key[0], key[1], step.weight, lab_in, lab_out, spec.tour1)
            self._tours.add(spec.tour1)

        # 3. Tour bookkeeping: M2 dissolves into M1.
        state.tour_size[spec.tour1] = spec.new_size
        state.tour_size.pop(spec.tour2, None)

        # 4. Endpoint witnesses: a previously-isolated endpoint now has an edge.
        for x in (u, v):
            i = self.vrow.get(x)
            if i is not None and not self.walive[i]:
                self.wu[i], self.wv[i] = normalize(u, v)
                self.ww[i] = step.weight
                self.wt1[i] = lab_in
                self.wt2[i] = lab_out
                self.wtour[i] = spec.tour1
                self.walive[i] = True
                self.wreplaced[i] = True
                self._tours.add(spec.tour1)

    # ------------------------------------------------------------------
    # scatter back into the MachineState dicts (changed rows only)
    # ------------------------------------------------------------------
    def scatter(self) -> None:
        state = self.state
        n = self.n_rows
        n0 = n - len(self.appended)

        # 1. Dead edges leave the MST (index and gauge upkeep included).
        for (u, v) in self.dead:
            state.pop_mst_edge(u, v)

        # 2. Surviving pre-existing rows: write back only changed labels.
        changed = np.flatnonzero(
            self.ealive[:n0]
            & (
                (self.et1[:n0] != self._et1_0[:n0])
                | (self.et2[:n0] != self._et2_0[:n0])
                | (self.etour[:n0] != self._etour_0[:n0])
            )
        ).tolist()
        if changed:
            t1l = self.et1[:n0].tolist()
            t2l = self.et2[:n0].tolist()
            tol = self.etour[:n0].tolist()
            objs = self.objs
            for r in changed:
                e = objs[r]
                e.t_uv = t1l[r]
                e.t_vu = t2l[r]
                e.tour = tol[r]

        # 3. Appended rows materialize as fresh ETEdges.
        for r in self.appended:
            state.add_mst_edge(
                ETEdge(
                    int(self.eu[r]), int(self.ev[r]), float(self.ew[r]),
                    int(self.et1[r]), int(self.et2[r]), int(self.etour[r]),
                )
            )

        # 4. Affected tour groups are regrouped wholesale from the final
        #    column; unaffected tours keep their index entries untouched.
        by_tour: Dict[int, Set[Tuple[int, int]]] = {}
        live = np.flatnonzero(self.ealive[:n])
        if live.size:
            tours_live = self.etour[live]
            order = np.argsort(tours_live, kind="stable")
            sorted_idx = live[order].tolist()
            sorted_tours = tours_live[order].tolist()
            keys = self.keys
            cur_tid: Optional[int] = None
            cur_set: Set[Tuple[int, int]] = set()
            for r, tid in zip(sorted_idx, sorted_tours):
                if tid != cur_tid:
                    cur_set = set()
                    by_tour[tid] = cur_set
                    cur_tid = tid
                cur_set.add(keys[r])
        state.replace_tour_groups(self._a_orig, by_tour)

        # 5. Vertex side: only rows whose columns moved touch the dicts.
        #    Surviving original witnesses mutate in place — the scalar
        #    transforms do the same — and only swapped rows (repick,
        #    repair install, link fill) get fresh ETEdge copies.
        walive0, wt10, wt20, wtour0 = self._w_0
        wit_changed = np.flatnonzero(
            (self.walive != walive0)
            | self.wreplaced
            | (
                self.walive
                & (
                    (self.wt1 != wt10) | (self.wt2 != wt20)
                    | (self.wtour != wtour0)
                )
            )
        ).tolist()
        if wit_changed:
            wul, wvl, wwl = self.wu.tolist(), self.wv.tolist(), self.ww.tolist()
            wt1l, wt2l = self.wt1.tolist(), self.wt2.tolist()
            wtourl = self.wtour.tolist()
            walivel = self.walive.tolist()
            replacedl = self.wreplaced.tolist()
            witness = state.witness
            wobjs = self.wobjs
            for i in wit_changed:
                if not walivel[i]:
                    witness[self.vx_list[i]] = None
                elif replacedl[i]:
                    witness[self.vx_list[i]] = ETEdge(
                        wul[i], wvl[i], wwl[i], wt1l[i], wt2l[i], wtourl[i]
                    )
                else:
                    w0 = wobjs[i]
                    w0.t_uv = wt1l[i]
                    w0.t_vu = wt2l[i]
                    w0.tour = wtourl[i]
        tour_changed = np.flatnonzero(self.vtour != self._vtour_0).tolist()
        if tour_changed:
            vtourl = self.vtour.tolist()
            tour_of = state.tour_of
            for i in tour_changed:
                t = vtourl[i]
                tour_of[self.vx_list[i]] = t if t != -1 else None


# ----------------------------------------------------------------------
# fleet-fused link application
# ----------------------------------------------------------------------
class _FleetLinkApplier:
    """Apply a link script to every plane with the label joins fused.

    A join spec is machine-independent — the same label arithmetic runs
    on every machine's rows — so instead of per-plane masked joins
    (k calls per step, each over a small array) the planes' columns are
    stacked into shared parents and each plane's attributes are replaced
    by views into them.  One step then costs one edge join, one witness
    join, and one vertex-tour rename over the stacked arrays; the
    per-machine scalar parts (edge append, size bookkeeping, witness
    fill) still run per plane through :meth:`MachineLabelPlane.link_local`
    and write through the views.  During initialisation this takes the
    join count per batch from O(k · links) to O(links).
    """

    def __init__(self, planes: Sequence[MachineLabelPlane]) -> None:
        self.planes = planes
        for pl in planes:
            pl._frozen = True
        self.e1, self.e2, self.etour, self.ealive = self._adopt(
            ("et1", "et2", "etour", "ealive")
        )
        self.w1, self.w2, self.wtour, self.walive = self._adopt(
            ("wt1", "wt2", "wtour", "walive")
        )
        (self.vtour,) = self._adopt(("vtour",))

    def _adopt(self, names: Sequence[str]) -> List[np.ndarray]:
        parents: List[np.ndarray] = []
        for name in names:
            arrs = [getattr(pl, name) for pl in self.planes]
            parent = np.concatenate(arrs)
            off = 0
            for pl, a in zip(self.planes, arrs):
                setattr(pl, name, parent[off : off + a.shape[0]])
                off += a.shape[0]
            parents.append(parent)
        return parents

    def run(self, script: Sequence["LinkStep"]) -> None:
        join = MachineLabelPlane._join_masked
        for step in script:
            spec = step.spec
            join(self.e1, self.e2, self.etour, self.ealive, spec)
            join(self.w1, self.w2, self.wtour, self.walive, spec)
            self.vtour[self.vtour == spec.tour2] = spec.tour1
            for pl in self.planes:
                pl.link_local(step)


# ----------------------------------------------------------------------
# the fast-path structural batch (mirrors scripts.run_structural_batch)
# ----------------------------------------------------------------------
def run_structural_batch_columnar(
    net: "Network",
    vp: "VertexPartition",
    states: Sequence["MachineState"],
    cuts: Sequence[Tuple[int, int]],
    links: Sequence[Tuple[int, int, float]],
    next_tour_id: int,
) -> int:
    """Lemma 5.9 with columnar local application.

    Wire-identical to :func:`repro.core.scripts.run_structural_batch`:
    the same broadcasts with the same payloads in the same order, so the
    ledger transcript matches byte for byte.  Locally, one
    :class:`MachineLabelPlane` per machine spans both the cut and the
    link phase; the witness repair and link-parameter collection between
    them read and write through the planes.  The dispatcher hands it
    non-empty batches only.
    """
    from repro.core.scripts import (
        _collect_cut_params,
        build_cut_script,
        build_link_script,
    )

    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("structural_batch", "columnar")
    base = next_tour_id
    cut_script = None
    if cuts:
        params = _collect_cut_params(net, vp, states, cuts)
        cut_script, next_tour_id = build_cut_script(params, base)
    # Affected original tours: every old_tour a cut step splits (cascaded
    # steps may name fresh ids >= base — those derive from these) plus
    # the current tours of the link endpoints.  Update endpoints are
    # packed even when isolated/tourless.
    a_orig: Set[int] = set()
    if cut_script:
        for step in cut_script:
            if step.spec.old_tour < base:
                a_orig.add(step.spec.old_tour)
    eps: Set[int] = set()
    for (u, v) in cuts:
        eps.update((u, v))
    for (u, v, _w) in links:
        eps.update((u, v))
        for x in (u, v):
            t = states[vp.home(x)].tour_of.get(x)
            if t is not None and t < base:
                a_orig.add(t)
    planes = [
        MachineLabelPlane(
            st,
            a_orig,
            eps,
            reserve=sum(
                1 for (u, v, _w) in links if u in st.vertices or v in st.vertices
            ),
        )
        for st in states
    ]
    if cut_script:
        for pl in planes:
            for step in cut_script:
                pl.cut_step(step)
        endpoints = [x for (u, v) in cuts for x in (u, v)]
        _repair_witnesses_columnar(net, vp, planes, endpoints)
    if links:
        lparams = _collect_link_params_columnar(net, vp, states, planes, links)
        link_script = build_link_script(lparams)
        _FleetLinkApplier(planes).run(link_script)
    for pl in planes:
        pl.scatter()
        pl.state.refresh_gauges()
    return next_tour_id


class LinkBatchSession:
    """Planes held open across consecutive link-only structural batches.

    The initialisation protocols (Theorems 5.8 and 8.1) run hundreds of
    small link batches back to back, and *nothing between two batches
    reads the Euler state* — the Borůvka drivers only consult their own
    component structure and the machines' static graph-edge dictionaries.
    Packing and scattering every machine's labels around each batch is
    therefore pure overhead; this session packs once (over every current
    tour), applies each batch's link script through the plane/fleet
    machinery, and scatters once in :meth:`close`.

    Wire-identity is untouched: each :meth:`run_links` call collects and
    broadcasts the same link parameters as an equivalent
    :func:`repro.core.scripts.run_structural_batch` call — the planes it
    reads tour ids from hold exactly the state a scatter would have
    installed.  What *does* change is space-gauge sampling: the scalar
    engine refreshes gauges after every batch, the session only on
    close, so ``Machine.peak_words`` during initialisation is sampled at
    the endpoints rather than per batch (the charge ledger never sees
    gauges, so rounds/messages/words/digest are byte-identical).

    Precondition: every tracked vertex has a tour (true after
    :func:`repro.core.init_build.make_states`), so the pack over all
    current tours covers every row a link can touch.
    """

    def __init__(
        self,
        net: "Network",
        vp: "VertexPartition",
        states: Sequence["MachineState"],
    ) -> None:
        self.net = net
        self.vp = vp
        self.states = states
        a_orig: Set[int] = set()
        for st in states:
            a_orig.update(t for t in st.tour_of.values() if t is not None)
        self.planes = [MachineLabelPlane(st, a_orig, set()) for st in states]

    def run_links(
        self, links: Sequence[Tuple[int, int, float]], next_tour_id: int
    ) -> int:
        """One Lemma 5.9 link batch; same wire as ``run_structural_batch``."""
        from repro.core.scripts import build_link_script

        if not links:
            return next_tour_id
        recorder = self.net.ledger.recorder
        if recorder is not None:
            recorder.on_engine("structural_batch", "columnar")
        for pl in self.planes:
            st = pl.state
            need = sum(
                1 for (u, v, _w) in links if u in st.vertices or v in st.vertices
            )
            if need:
                pl._frozen = False
                pl._grow(need)
        lparams = _collect_link_params_columnar(
            self.net, self.vp, self.states, self.planes, links
        )
        _FleetLinkApplier(self.planes).run(build_link_script(lparams))
        return next_tour_id

    def close(self) -> None:
        """Scatter every plane back into its machine state, once."""
        for pl in self.planes:
            pl.scatter()
            pl.state.refresh_gauges()


def _repair_witnesses_columnar(
    net: "Network",
    vp: "VertexPartition",
    planes: Sequence[MachineLabelPlane],
    vertices: Sequence[int],
) -> None:
    """Plane-reading twin of :func:`repro.core.scripts._repair_witnesses`."""
    from repro.comm.rerouting import scheduled_broadcasts
    from repro.sim.message import WORDS_ET_EDGE

    reqs = []
    for x in sorted(set(vertices)):
        src = vp.home(x)
        pl = planes[src]
        pl.repick_home_witness(x)
        snap = pl.witness_snapshot(x)
        tid = pl.tour_id_of(x)
        reqs.append((src, ("repair", x, snap, tid), WORDS_ET_EDGE + 1))
    got = scheduled_broadcasts(net, reqs)
    for _src, (_tag, x, snap, tid) in got:
        for pl in planes:
            pl.install_witness(x, snap, tid)


def _collect_link_params_columnar(
    net: "Network",
    vp: "VertexPartition",
    states: Sequence["MachineState"],
    planes: Sequence[MachineLabelPlane],
    links: Sequence[Tuple[int, int, float]],
) -> List:
    """Plane-reading twin of :func:`repro.core.scripts._collect_link_params`."""
    from repro.comm.rerouting import scheduled_broadcasts
    from repro.core.scripts import _LinkParam
    from repro.sim.message import WORDS_ID

    ordered = sorted((normalize(u, v) + (w,)) for (u, v, w) in links)
    reqs = []
    for (u, v, w) in ordered:
        for x in (u, v):
            src = vp.home(x)
            pl = planes[src]
            tid = pl.tour_id_of(x)
            if tid is None:
                raise ProtocolError(f"machine {src}: unknown tour for owned vertex {x}")
            size = states[src].tour_size.get(tid)
            if size is None:
                raise ProtocolError(f"machine {src}: unknown size for tour {tid}")
            out = pl.outgoing_value(x)
            reqs.append(
                (src, ("linkp", u, v, w, x, out if out is not None else 0, tid, size),
                 WORDS_ID * 5)
            )
    got = scheduled_broadcasts(net, reqs)
    halves: Dict[Tuple[int, int, float], Dict[int, Tuple[int, int, int]]] = {}
    for _src, (_tag, u, v, w, x, out, tid, size) in got:
        halves.setdefault((u, v, w), {})[x] = (out, tid, size)
    params = []
    for (u, v, w) in ordered:
        h = halves[(u, v, w)]
        a, t1, s1 = h[u]
        b, t2, s2 = h[v]
        params.append(_LinkParam(u, v, w, a, t1, s1, b, t2, s2))
    return params


# ----------------------------------------------------------------------
# reroot (Lemma 5.5) over a whole machine, for the single-update path
# ----------------------------------------------------------------------
def reroot_machine_labels(
    state: "MachineState", tid: int, d: int, size: int
) -> None:
    """Apply the reroot transform to every label of tour ``tid``.

    Value-identical to the scalar loops in
    :func:`repro.core.single_update.run_reroot`: the kernel
    :func:`repro.euler.vectorized.reroot_labels` is property-tested
    element-for-element against :func:`repro.euler.labels.reroot_label`.
    """
    keys = state.mst_keys_in_tour(tid)
    if len(keys) >= 2:
        t1 = np.fromiter((state.mst[k].t_uv for k in keys), np.int64, len(keys))
        t2 = np.fromiter((state.mst[k].t_vu for k in keys), np.int64, len(keys))
        new1 = reroot_labels(t1, d, size).tolist()
        new2 = reroot_labels(t2, d, size).tolist()
        for i, k in enumerate(keys):
            ete = state.mst[k]
            ete.t_uv = new1[i]
            ete.t_vu = new2[i]
    else:
        for k in keys:
            ete = state.mst[k]
            ete.t_uv = reroot_label(ete.t_uv, d, size)
            ete.t_vu = reroot_label(ete.t_vu, d, size)
    for w in state.witness.values():
        if w is not None and w.tour == tid:
            w.t_uv = reroot_label(w.t_uv, d, size)
            w.t_vu = reroot_label(w.t_vu, d, size)
