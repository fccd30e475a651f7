"""Resident columnar Euler state and the Lemma 5.9 engine over it (fast).

An ``inproc-columnar`` instance keeps every machine's Euler state in
NumPy columns for its whole life, stacked across the fleet in one
:class:`FleetColumns` store, and keeps no :class:`~repro.euler.tour.ETEdge`
object beside them:

* **edge rows**, one per stored MST-edge copy: machine ``emid``,
  endpoints ``eu``/``ev`` (normalized), weight ``ew``, labels
  ``et1``/``et2`` (the u→v and v→u traversal times), tour ``etour`` and
  liveness ``ealive``;
* **vertex rows**, one per (machine, tracked vertex): machine ``vmid``,
  vertex ``vx``, ``vown`` (the machine hosts the vertex), tour ``vtour``
  (``-1`` = unknown), and the witness copy ``wu``/``wv``/``ww``/
  ``wt1``/``wt2``/``wtour`` with liveness ``walive`` and ``wkey`` (a
  witness entry exists — what the space gauge counts);
* **graph-edge rows**, the §6.2 scan table: machine, endpoints, weight
  and the endpoints' vertex rows on that machine.

Per-machine dicts map a key to its row (indexes, not objects), and
:class:`ColumnarMachineState` answers the :mod:`repro.core.state` seam
from them.  Rows are appended in place; dead edge rows are dropped by
an occasional compaction.

A cut or link step of a Lemma 5.9 script runs once over the whole fleet:
one masked split or join over the stacked label columns, whatever k is.
The per-machine parts — killing the cut edge's copies, appending a
link's copies on its hosting machines, endpoint witness re-picks and
``tour_size`` bookkeeping — work on row indexes, so a batch costs array
passes plus Python work proportional to the batch, not to the machines'
state.  The classification of tracked vertices happens in the same
(pre-relabel) coordinates, and witness invalidation and re-picking follow
the same rules and tie-breaks as :mod:`repro.core.scripts`; the wire
(request order, payloads, word counts) is the same code, so the ledger
matches byte for byte.  The cross-engine suites in ``tests/perf``
compare every machine's :meth:`~repro.core.state.MachineStateBase.record`
under ``REPRO_STRICT=1``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.state import MachineStateBase, Snapshot
from repro.errors import ProtocolError
from repro.euler.labels import JoinSpec, SplitSpec
from repro.euler.tour import ETEdge
from repro.euler.vectorized import (
    join_m1_labels,
    join_m2_labels,
    reroot_labels,
    split_labels,
)
from repro.graphs.graph import normalize
from repro.sim.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.core.scripts import CutStep, LinkStep
    from repro.graphs.graph import WeightedGraph
    from repro.sim.network import Network
    from repro.sim.partition import VertexPartition

_I = np.int64
_EDGE_COLS = (
    ("emid", _I), ("eu", _I), ("ev", _I), ("ew", np.float64),
    ("et1", _I), ("et2", _I), ("etour", _I), ("ealive", bool),
)
_VERTEX_COLS = (
    ("vmid", _I), ("vx", _I), ("vown", bool), ("vtour", _I),
    ("wu", _I), ("wv", _I), ("ww", np.float64), ("wt1", _I), ("wt2", _I),
    ("wtour", _I), ("walive", bool), ("wkey", bool),
)
_GRAPH_COLS = (
    ("gmid", _I), ("gu", _I), ("gv", _I), ("gw", np.float64),
    ("gur", _I), ("gvr", _I), ("galive", bool),
)
#: ``vtour`` of a removed vertex's row: matches no tour and not "unknown".
_GONE = -2


class FleetColumns:
    """Every machine's Euler state, stacked in columns (see module doc)."""

    def __init__(self, k: int) -> None:
        self.k = k
        for cols in (_EDGE_COLS, _VERTEX_COLS, _GRAPH_COLS):
            for name, dtype in cols:
                setattr(self, name, np.zeros(8, dtype=dtype))
        self.ne = self.nv = self.ng = 0
        self.erow: List[Dict[Tuple[int, int], int]] = [{} for _ in range(k)]
        self.vrow: List[Dict[int, int]] = [{} for _ in range(k)]
        #: Witness entries per machine (the ``witness`` gauge's count).
        self.wkeys = [0] * k
        self._n_dead = self._n_gdead = 0
        # Gauge epoch: per machine (MST count, witness count) at its start,
        # and the copies killed / appended since (see end_epoch).
        self._epoch: List[Tuple[int, int]] = []
        self._killed = [0] * k
        self._added = [0] * k

    # ------------------------------------------------------------------
    # row storage
    # ------------------------------------------------------------------
    def _reserve(self, cols, n: int, extra: int) -> None:
        need = n + extra
        cap = getattr(self, cols[0][0]).shape[0]
        if need <= cap:
            return
        new_cap = max(need, cap + cap // 4)
        for name, dtype in cols:
            arr = np.zeros(new_cap, dtype=dtype)
            arr[:n] = getattr(self, name)[:n]
            setattr(self, name, arr)

    def add_edge_row(
        self, m: int, u: int, v: int, w: float, t1: int, t2: int, tour: int
    ) -> int:
        erow = self.erow[m]
        if (u, v) in erow:
            raise ProtocolError(f"machine {m}: MST edge {(u, v)} already present")
        self._reserve(_EDGE_COLS, self.ne, 1)
        r = self.ne
        self.emid[r], self.eu[r], self.ev[r], self.ew[r] = m, u, v, w
        self.et1[r], self.et2[r], self.etour[r] = t1, t2, tour
        self.ealive[r] = True
        self.ne = r + 1
        erow[(u, v)] = r
        self._added[m] += 1
        return r

    def kill_edge_row(self, m: int, key: Tuple[int, int]) -> Optional[int]:
        r = self.erow[m].pop(key, None)
        if r is not None:
            self.ealive[r] = False
            self._n_dead += 1
            self._killed[m] += 1
        return r

    def add_vertex_row(self, m: int, x: int, own: bool, tour: int, wkey: bool) -> int:
        self._reserve(_VERTEX_COLS, self.nv, 1)
        i = self.nv
        self.vmid[i], self.vx[i], self.vown[i], self.vtour[i] = m, x, own, tour
        self.walive[i] = False
        self.wkey[i] = wkey
        self.wkeys[m] += int(wkey)
        self.nv = i + 1
        self.vrow[m][x] = i
        return i

    def add_vertex_rows(
        self, m: int, xs: List[int], own: np.ndarray, tours: np.ndarray,
        wkey: np.ndarray,
    ) -> None:
        n = len(xs)
        self._reserve(_VERTEX_COLS, self.nv, n)
        a, b = self.nv, self.nv + n
        self.vmid[a:b] = m
        self.vx[a:b] = xs
        self.vown[a:b] = own
        self.vtour[a:b] = tours
        self.walive[a:b] = False
        self.wkey[a:b] = wkey
        self.wkeys[m] += int(np.count_nonzero(wkey))
        self.nv = b
        self.vrow[m].update(zip(xs, range(a, b)))

    def add_graph_rows(self, m: int, edges: Dict[Tuple[int, int], float]) -> None:
        n = len(edges)
        self._reserve(_GRAPH_COLS, self.ng, n)
        a, b = self.ng, self.ng + n
        vrow = self.vrow[m]
        self.gmid[a:b] = m
        self.gu[a:b] = [u for (u, _v) in edges]
        self.gv[a:b] = [v for (_u, v) in edges]
        self.gw[a:b] = list(edges.values())
        self.gur[a:b] = [vrow[u] for (u, _v) in edges]
        self.gvr[a:b] = [vrow[v] for (_u, v) in edges]
        self.galive[a:b] = True
        self.ng = b

    def add_edge_rows(self, m: int, etes: Sequence[ETEdge]) -> None:
        erow = self.erow[m]
        keys = [normalize(e.u, e.v) for e in etes]
        if len(set(keys)) != len(keys) or any(k in erow for k in keys):
            raise ProtocolError(f"machine {m}: MST edge inserted twice")
        n = len(etes)
        self._reserve(_EDGE_COLS, self.ne, n)
        a, b = self.ne, self.ne + n
        self.emid[a:b] = m
        self.eu[a:b] = [k[0] for k in keys]
        self.ev[a:b] = [k[1] for k in keys]
        self.ew[a:b] = [e.weight for e in etes]
        self.et1[a:b] = [e.t_uv for e in etes]
        self.et2[a:b] = [e.t_vu for e in etes]
        self.etour[a:b] = [e.tour for e in etes]
        self.ealive[a:b] = True
        self.ne = b
        erow.update(zip(keys, range(a, b)))
        self._added[m] += n

    def remove_vertex_row(self, m: int, x: int) -> None:
        i = self.vrow[m].pop(x, None)
        if i is None:
            return
        self.wkeys[m] -= int(self.wkey[i])
        self.vmid[i], self.vtour[i] = -1, _GONE
        self.vown[i] = self.walive[i] = self.wkey[i] = False

    def add_graph_row(self, m: int, u: int, v: int, w: float) -> None:
        self._reserve(_GRAPH_COLS, self.ng, 1)
        g = self.ng
        vrow = self.vrow[m]
        self.gmid[g], self.gu[g], self.gv[g], self.gw[g] = m, u, v, w
        self.gur[g], self.gvr[g] = vrow[u], vrow[v]
        self.galive[g] = True
        self.ng = g + 1

    def kill_graph_row(self, m: int, key: Tuple[int, int]) -> None:
        # Deletions are few per batch, so a masked search beats keeping a
        # second key index beside the machine's graph-edge dict.
        ng = self.ng
        hit = np.flatnonzero(
            self.galive[:ng] & (self.gmid[:ng] == m)
            & (self.gu[:ng] == key[0]) & (self.gv[:ng] == key[1])
        )
        self.galive[hit] = False
        self._n_gdead += hit.shape[0]
        if self._n_gdead > max(64, ng // 2):
            self.ng = self._compact(_GRAPH_COLS, self.galive, ng)
            self._n_gdead = 0

    def _compact_edges(self) -> None:
        self.ne = self._compact(_EDGE_COLS, self.ealive, self.ne)
        for erow in self.erow:
            erow.clear()
        for r, m, u, v in zip(
            range(self.ne),
            self.emid[: self.ne].tolist(),
            self.eu[: self.ne].tolist(),
            self.ev[: self.ne].tolist(),
        ):
            self.erow[m][(u, v)] = r
        self._n_dead = 0

    def _compact(self, cols, alive: np.ndarray, n: int) -> int:
        """Drop a table's dead rows in place, keeping row order; returns
        the new row count."""
        live = np.flatnonzero(alive[:n])
        for name, _dtype in cols:
            col = getattr(self, name)
            col[: live.shape[0]] = col[live]
        return int(live.shape[0])

    def set_witness_row(self, i: int, snap: Optional[Sequence]) -> None:
        """Write one witness entry (``None`` kills it; the entry stays)."""
        if not self.wkey[i]:
            self.wkey[i] = True
            self.wkeys[int(self.vmid[i])] += 1
        if snap is None:
            self.walive[i] = False
            return
        u, v, w, t1, t2, tour = snap
        self.wu[i], self.wv[i], self.ww[i] = u, v, w
        self.wt1[i], self.wt2[i], self.wtour[i] = t1, t2, tour
        self.walive[i] = True

    def witness_of_row(self, i: int) -> Optional[Snapshot]:
        if not self.walive[i]:
            return None
        return (
            int(self.wu[i]), int(self.wv[i]), float(self.ww[i]),
            int(self.wt1[i]), int(self.wt2[i]), int(self.wtour[i]),
        )

    def edge_of_row(self, r: int) -> ETEdge:
        return ETEdge(
            int(self.eu[r]), int(self.ev[r]), float(self.ew[r]),
            int(self.et1[r]), int(self.et2[r]), int(self.etour[r]),
        )

    def _edges_of_rows(self, rows: np.ndarray) -> List[ETEdge]:
        return [
            ETEdge(u, v, w, t1, t2, t)
            for u, v, w, t1, t2, t in zip(
                self.eu[rows].tolist(), self.ev[rows].tolist(),
                self.ew[rows].tolist(), self.et1[rows].tolist(),
                self.et2[rows].tolist(), self.etour[rows].tolist(),
            )
        ]

    def machine_edge_rows(self, m: int) -> np.ndarray:
        n = self.ne
        return np.flatnonzero(self.ealive[:n] & (self.emid[:n] == m))

    def incident_rows(self, m: int, x: int) -> np.ndarray:
        n = self.ne
        return np.flatnonzero(
            self.ealive[:n] & (self.emid[:n] == m)
            & ((self.eu[:n] == x) | (self.ev[:n] == x))
        )

    def pick_witness_row(self, m: int, x: int) -> Optional[int]:
        """Row of x's min-key live incident MST edge on machine m."""
        inc = self.incident_rows(m, x)
        if inc.size == 0:
            return None
        if inc.size == 1:
            return int(inc[0])
        # min by ETEdge.key == (weight, u, v); lexsort's last key is primary
        order = np.lexsort((self.ev[inc], self.eu[inc], self.ew[inc]))
        return int(inc[order[0]])

    def witness_from_row(self, i: int, r: int) -> None:
        self.set_witness_row(i, (
            self.eu[r], self.ev[r], self.ew[r], self.et1[r], self.et2[r], self.etour[r],
        ))

    def outgoing_value(self, m: int, x: int) -> Optional[int]:
        """Min label departing ``x`` on machine ``m``."""
        inc = self.incident_rows(m, x)
        if inc.size == 0:
            return None
        out = np.where(self.eu[inc] == x, self.et1[inc], self.et2[inc])
        return int(out.min())

    # ------------------------------------------------------------------
    # gauge epochs: sample the space gauges where the per-edge storage did
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        self._epoch = [(len(self.erow[m]), self.wkeys[m]) for m in range(self.k)]
        self._killed = [0] * self.k
        self._added = [0] * self.k

    def end_epoch(self, states: Sequence["ColumnarMachineState"]) -> None:
        """Refresh every machine's gauges as per-edge storage would have.

        Storage that pops each killed copy and then inserts each appended
        one samples the machine's peak after every single change; the
        samples that can set the peak are the first pop (or the first
        insert), the last insert, and the final refresh, replayed here in
        that order with the same gauge values.
        """
        for m, st in enumerate(states):
            m0, w0 = self._epoch[m]
            st.replay_gauges(m0, self._killed[m], self._added[m], w0)
        if self._n_dead > max(64, self.ne // 2):
            self._compact_edges()

    # ------------------------------------------------------------------
    # vectorized label transforms
    # ------------------------------------------------------------------
    @staticmethod
    def _split_masked(
        t1: np.ndarray, t2: np.ndarray, tours: np.ndarray, mask: np.ndarray,
        spec: SplitSpec,
    ) -> None:
        new_tours1, new1 = split_labels(t1[mask], spec)
        new_tours2, new2 = split_labels(t2[mask], spec)
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
    # one cut step over the fleet (mirrors repro.core.scripts.apply_cut_step)
    # ------------------------------------------------------------------
    def cut_step(
        self, step: "CutStep", vp: "VertexPartition", states: Sequence[MachineStateBase]
    ) -> None:
        spec = step.spec
        old = spec.old_tour
        cu, cv = normalize(*step.edge)
        nv, ne = self.nv, self.ne
        vx, vtour = self.vx[:nv], self.vtour[:nv]
        wu, wv = self.wu[:nv], self.wv[:nv]
        wt1, wt2, wtour = self.wt1[:nv], self.wt2[:nv], self.wtour[:nv]
        walive = self.walive[:nv]

        # Witnesses that *are* the cut edge (endpoint comparison, like
        # ``normalize(w.u, w.v) == cut_key`` in the reference engine).
        w_is_cut = (
            walive
            & (np.minimum(wu, wv) == cu)
            & (np.maximum(wu, wv) == cv)
        )

        # 1. Classify tracked vertices of the split tour in old coordinates.
        sel = np.flatnonzero(vtour == old)
        known = sel
        new_known: Optional[np.ndarray] = None
        fallback: Dict[int, int] = {}
        if sel.size:
            head = step.snapshot.head_at(spec.e_min)
            alive = walive[sel]
            a1, a2 = wt1[sel], wt2[sel]
            inside = np.where(
                w_is_cut[sel],
                vx[sel] == head,
                (spec.e_min < np.minimum(a1, a2)) & (np.maximum(a1, a2) < spec.e_max),
            )
            known = sel[alive]
            new_known = np.where(inside[alive], spec.inside_tour, old)
            for i in sel[~alive].tolist():
                x, m = int(vx[i]), int(self.vmid[i])
                if not self.vown[i]:
                    fallback[i] = -1  # unknown until the repair broadcast
                    continue
                r = self.pick_witness_row(m, x)
                if r is None:
                    raise ProtocolError(
                        f"machine {m}: owned vertex {x} in tour "
                        f"{old} has no incident MST edge"
                    )
                if (int(self.eu[r]), int(self.ev[r])) == (cu, cv):
                    is_inside = head == x
                else:
                    r1, r2 = int(self.et1[r]), int(self.et2[r])
                    is_inside = spec.e_min < min(r1, r2) and max(r1, r2) < spec.e_max
                fallback[i] = spec.inside_tour if is_inside else old

        # 2. Remove the cut edge's copies; invalidate witnesses of it.
        for m in range(self.k):
            self.kill_edge_row(m, (cu, cv))
        walive &= ~w_is_cut

        # 3. Relabel surviving MST edges and witnesses of the split tour.
        etour = self.etour[:ne]
        edge_mask = self.ealive[:ne] & (etour == old)
        if bool(edge_mask.any()):
            self._split_masked(self.et1[:ne], self.et2[:ne], etour, edge_mask, spec)
        wit_mask = walive & (wtour == old)
        if bool(wit_mask.any()):
            self._split_masked(wt1, wt2, wtour, wit_mask, spec)

        # 4. Tour bookkeeping.
        for st in states:
            st.tour_size[old] = spec.root_side_size
            st.tour_size[spec.inside_tour] = spec.inside_size
        if new_known is not None:
            vtour[known] = new_known
            for i, tid in fallback.items():
                vtour[i] = tid

        # 5. Owned endpoints whose witness died re-pick locally for free.
        for x in (cu, cv):
            m = vp.home(x)
            i = self.vrow[m].get(x)
            if i is None or walive[i] or vtour[i] == -1:
                continue
            r = self.pick_witness_row(m, x)
            if r is None:
                self.set_witness_row(i, None)
            else:
                self.witness_from_row(i, r)

    # ------------------------------------------------------------------
    # one link step over the fleet (mirrors repro.core.scripts.apply_link_step)
    # ------------------------------------------------------------------
    def link_step(
        self, step: "LinkStep", vp: "VertexPartition", states: Sequence[MachineStateBase]
    ) -> None:
        spec = step.spec
        u, v = step.edge
        lab_in, lab_out = spec.new_edge_labels
        nv, ne = self.nv, self.ne

        # 1. Relabel existing MST edges, witnesses and tour ids.
        self._join_masked(
            self.et1[:ne], self.et2[:ne], self.etour[:ne], self.ealive[:ne], spec
        )
        self._join_masked(
            self.wt1[:nv], self.wt2[:nv], self.wtour[:nv], self.walive[:nv], spec
        )
        vtour = self.vtour[:nv]
        vtour[vtour == spec.tour2] = spec.tour1

        # 2. Materialize the new edge on the machines hosting an endpoint.
        a, b = normalize(u, v)
        for m in sorted({vp.home(u), vp.home(v)}):
            self.add_edge_row(m, a, b, step.weight, lab_in, lab_out, spec.tour1)

        # 3. Tour bookkeeping: M2 dissolves into M1.
        for st in states:
            st.tour_size[spec.tour1] = spec.new_size
            st.tour_size.pop(spec.tour2, None)

        # 4. Endpoint witnesses: a previously-isolated endpoint now has an edge.
        snap = (a, b, step.weight, lab_in, lab_out, spec.tour1)
        for x in (u, v):
            for vrow in self.vrow:
                i = vrow.get(x)
                if i is not None and not self.walive[i]:
                    self.set_witness_row(i, snap)

    # ------------------------------------------------------------------
    # reroot (Lemma 5.5) of one tour, fleet-wide
    # ------------------------------------------------------------------
    def reroot(self, tid: int, d: int, size: int) -> None:
        ne, nv = self.ne, self.nv
        em = np.flatnonzero(self.ealive[:ne] & (self.etour[:ne] == tid))
        self.et1[em] = reroot_labels(self.et1[em], d, size)
        self.et2[em] = reroot_labels(self.et2[em], d, size)
        wm = np.flatnonzero(self.walive[:nv] & (self.wtour[:nv] == tid))
        self.wt1[wm] = reroot_labels(self.wt1[wm], d, size)
        self.wt2[wm] = reroot_labels(self.wt2[wm], d, size)

    # ------------------------------------------------------------------
    # fleet-wide reads (serve view)
    # ------------------------------------------------------------------
    def forest(self) -> Tuple[Dict[Tuple[int, int], float], Dict[int, int]]:
        """Forest edges ``{(u, v): w}`` and every vertex's component label.

        A vertex's tour id names its tree, so its label — the tree's
        minimum vertex id — is the minimum over the hosted vertices
        sharing that tour id.
        """
        live = np.flatnonzero(self.ealive[: self.ne])
        edges = dict(zip(
            zip(self.eu[live].tolist(), self.ev[live].tolist()), self.ew[live].tolist()
        ))
        home = np.flatnonzero(self.vown[: self.nv])
        xs, ts = self.vx[home], self.vtour[home]
        order = np.lexsort((xs, ts))
        ts_sorted = ts[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = ts_sorted[1:] != ts_sorted[:-1]
        group = np.cumsum(first) - 1
        labels = np.empty_like(xs)
        labels[order] = xs[order][first][group]
        return edges, dict(zip(xs.tolist(), labels.tolist()))


class ColumnarMachineState(MachineStateBase):
    """One machine's view of the fleet columns (the columnar storage)."""

    __slots__ = ("fleet",)

    def __init__(
        self,
        mid: int,
        vertices: Iterable[int],
        machine: Optional[Machine],
        fleet: FleetColumns,
    ) -> None:
        super().__init__(mid, vertices, machine)
        self.fleet = fleet

    @property
    def tracked(self):  # type: ignore[override]
        """Tracked vertices (a live view of the vertex-row index)."""
        return self.fleet.vrow[self.mid].keys()

    # ------------------------------------------------------------------
    # tracked vertices, tour ids, witnesses
    # ------------------------------------------------------------------
    def track(self, x: int, refresh: bool = True) -> None:
        fleet = self.fleet
        if x not in fleet.vrow[self.mid]:
            fleet.add_vertex_row(self.mid, x, x in self.vertices, -1, True)
            if refresh:
                self._update_gauges()

    def untrack(self, x: int) -> None:
        self.fleet.remove_vertex_row(self.mid, x)

    def _row(self, x: int) -> Optional[int]:
        return self.fleet.vrow[self.mid].get(x)

    def tour_id(self, x: int) -> Optional[int]:
        i = self._row(x)
        if i is None:
            return None
        t = int(self.fleet.vtour[i])
        return None if t < 0 else t

    def set_tour_id(self, x: int, tid: Optional[int]) -> None:
        i = self.fleet.vrow[self.mid][x]
        self.fleet.vtour[i] = -1 if tid is None else tid

    def witness_snapshot(self, x: int) -> Optional[Snapshot]:
        i = self._row(x)
        return None if i is None else self.fleet.witness_of_row(i)

    def set_witness(self, x: int, snap: Optional[Snapshot]) -> None:
        self.fleet.set_witness_row(self.fleet.vrow[self.mid][x], snap)

    def witness_items(self) -> List[Tuple[int, Optional[Snapshot]]]:
        fleet = self.fleet
        return [
            (x, fleet.witness_of_row(i))
            for x, i in sorted(fleet.vrow[self.mid].items())
            if fleet.wkey[i]
        ]

    # ------------------------------------------------------------------
    # MST edges
    # ------------------------------------------------------------------
    def mst_edge(self, key: Tuple[int, int]) -> Optional[ETEdge]:
        r = self.fleet.erow[self.mid].get(key)
        return None if r is None else self.fleet.edge_of_row(r)

    def iter_mst(self) -> Iterator[ETEdge]:
        return iter(self.fleet._edges_of_rows(self.fleet.machine_edge_rows(self.mid)))

    def mst_count(self) -> int:
        return len(self.fleet.erow[self.mid])

    def add_mst_edge(self, ete: ETEdge) -> None:
        u, v = normalize(ete.u, ete.v)
        self.fleet.add_edge_row(self.mid, u, v, ete.weight, ete.t_uv, ete.t_vu, ete.tour)
        self._update_gauges()

    def add_mst_edges(self, etes: List[ETEdge]) -> None:
        # The first insert samples the gauges as a single insert does;
        # after it only the MST count moves, so one refresh at the end
        # reaches the same peak as one sample per insert.
        if not etes:
            return
        self.add_mst_edge(etes[0])
        self.fleet.add_edge_rows(self.mid, etes[1:])
        self._update_gauges()

    def set_tours_and_witnesses(
        self, tours: Dict[int, int], witnesses: Dict[int, Optional[Snapshot]]
    ) -> None:
        fleet = self.fleet
        vrow = fleet.vrow[self.mid]
        rows = np.array([vrow[x] for x in tours], dtype=_I)
        fleet.vtour[rows] = list(tours.values())
        items = list(witnesses.items())
        rows = np.array([vrow[x] for x, _s in items], dtype=_I)
        fresh = rows[~fleet.wkey[rows]]
        fleet.wkeys[self.mid] += int(fresh.shape[0])
        fleet.wkey[rows] = True
        alive = [s is not None for _x, s in items]
        fleet.walive[rows] = alive
        live = rows[np.asarray(alive, dtype=bool)]
        snaps = [s for _x, s in items if s is not None]
        if snaps:
            for j, name in enumerate(("wu", "wv", "ww", "wt1", "wt2", "wtour")):
                getattr(fleet, name)[live] = [snap[j] for snap in snaps]

    def pop_mst_edge(self, u: int, v: int) -> Optional[ETEdge]:
        key = normalize(u, v)
        r = self.fleet.kill_edge_row(self.mid, key)
        self._update_gauges()
        return None if r is None else self.fleet.edge_of_row(r)

    def incident_mst(self, x: int) -> List[ETEdge]:
        return self.fleet._edges_of_rows(self.fleet.incident_rows(self.mid, x))

    def _tour_rows(self, tid: int) -> np.ndarray:
        fleet = self.fleet
        n = fleet.ne
        return np.flatnonzero(
            fleet.ealive[:n] & (fleet.emid[:n] == self.mid) & (fleet.etour[:n] == tid)
        )

    def mst_keys_in_tour(self, tid: int) -> List[Tuple[int, int]]:
        rows = self._tour_rows(tid)
        return list(zip(self.fleet.eu[rows].tolist(), self.fleet.ev[rows].tolist()))

    def tour_columns(self, tid: int) -> Tuple[np.ndarray, ...]:
        fleet = self.fleet
        rows = self._tour_rows(tid)
        return (fleet.eu[rows], fleet.ev[rows], fleet.ew[rows],
                fleet.et1[rows], fleet.et2[rows])

    def outgoing_value(self, x: int) -> Optional[int]:
        return self.fleet.outgoing_value(self.mid, x)

    def live_tours(self) -> Set[int]:
        fleet = self.fleet
        nv, ne = fleet.nv, fleet.ne
        mine = fleet.vmid[:nv] == self.mid
        vt = fleet.vtour[:nv][mine]
        live = set(np.unique(vt[vt >= 0]).tolist())
        live.update(np.unique(fleet.wtour[:nv][mine & fleet.walive[:nv]]).tolist())
        live.update(
            np.unique(fleet.etour[:ne][fleet.ealive[:ne] & (fleet.emid[:ne] == self.mid)])
            .tolist()
        )
        return live

    # ------------------------------------------------------------------
    # graph edges: the resident §6.2 table follows the dict
    # ------------------------------------------------------------------
    def _after_store(self, key: Tuple[int, int], weight: float) -> None:
        self.fleet.add_graph_row(self.mid, key[0], key[1], weight)

    def _after_drop(self, key: Tuple[int, int]) -> None:
        self.fleet.kill_graph_row(self.mid, key)

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def _gauge_counts(self) -> Tuple[int, int, int, int]:
        fleet = self.fleet
        return (
            len(self.graph_edges), len(fleet.erow[self.mid]),
            fleet.wkeys[self.mid], len(fleet.vrow[self.mid]),
        )

    def replay_gauges(self, m0: int, killed: int, added: int, w0: int) -> None:
        """Sample the gauges as popping ``killed`` copies, inserting
        ``added`` ones and refreshing would have (see
        :meth:`FleetColumns.end_epoch`)."""
        g, m, w, t = self._gauge_counts()
        sizes = len(self.tour_size)
        if killed or added:
            self._set_gauges(g, m0 - 1 if killed else m0 + 1, w0, t, sizes)
            self._set_gauges(g, m, w0, t, sizes)
        self._set_gauges(g, m, w, t, sizes)


# ----------------------------------------------------------------------
# building the store
# ----------------------------------------------------------------------
def make_columnar_states(
    graph: "WeightedGraph",
    vp: "VertexPartition",
    net: "Network",
) -> Tuple[List[ColumnarMachineState], int]:
    """Columnar twin of :func:`repro.core.init_build.make_states`.

    Same graph-edge dicts in the same insertion order, every tracked
    vertex a singleton tour named by its id, gauges refreshed once per
    machine at the end.
    """
    fleet = FleetColumns(net.k)
    states = [
        ColumnarMachineState(m, vp.vertices_of[m], net.machines[m], fleet)
        for m in range(net.k)
    ]
    # Owned vertices first, then remote endpoints as first met.
    remote: List[Dict[int, None]] = [{} for _ in states]
    for e in graph.edges():
        key = normalize(e.u, e.v)
        for m in vp.edge_machines(e.u, e.v):
            st = states[m]
            if key in st.graph_edges:
                raise ProtocolError(f"machine {m}: edge {key} already stored")
            st.graph_edges[key] = e.weight
            for x, other in ((key[0], key[1]), (key[1], key[0])):
                if x in st.vertices and other not in st.vertices:
                    remote[m][other] = None
    for st, far in zip(states, remote):
        xs = sorted(st.vertices)
        n_own = len(xs)
        xs.extend(far)
        own = np.zeros(len(xs), dtype=bool)
        own[:n_own] = True
        fleet.add_vertex_rows(st.mid, xs, own, np.asarray(xs, dtype=_I), ~own)
        fleet.add_graph_rows(st.mid, st.graph_edges)
        st.tour_size = dict.fromkeys(xs, 0)
        st.refresh_gauges()
    next_tour_id = max(graph.vertices(), default=-1) + 1
    return states, next_tour_id


def restore_columnar_states(
    records: Sequence[dict], net: "Network"
) -> List[ColumnarMachineState]:
    """Rebuild a columnar fleet from :meth:`MachineStateBase.record` records."""
    fleet = FleetColumns(net.k)
    states = [
        ColumnarMachineState(mrec["mid"], mrec["vertices"], net.machines[mrec["mid"]], fleet)
        for mrec in records
    ]
    for st, mrec in zip(states, records):
        m = st.mid
        witness = mrec["witness"]
        tour_of = mrec["tour_of"]
        for x in mrec["tracked"]:
            t = tour_of.get(str(x))
            i = fleet.add_vertex_row(m, x, x in st.vertices, -1 if t is None else t,
                                     str(x) in witness)
            snap = witness.get(str(x))
            if snap is not None:
                fleet.set_witness_row(i, snap)
        for (u, v, w) in mrec["graph_edges"]:
            st.store_graph_edge(u, v, w, refresh=False)
        for e in mrec["mst"]:
            fleet.add_edge_row(m, *e)
        st.tour_size = {int(t): s for t, s in mrec["tour_size"].items()}
        st.refresh_gauges()
    return states


# ----------------------------------------------------------------------
# the fast-path structural batch (mirrors scripts.run_structural_batch)
# ----------------------------------------------------------------------
def run_structural_batch_columnar(
    net: "Network",
    vp: "VertexPartition",
    states: Sequence["MachineStateBase"],
    cuts: Sequence[Tuple[int, int]],
    links: Sequence[Tuple[int, int, float]],
    next_tour_id: int,
) -> int:
    """Lemma 5.9 over the resident fleet columns.

    Wire-identical to :func:`repro.core.scripts.run_structural_batch`:
    the parameter collection and the witness repair are the same code,
    reading the columns through the state seam, so the same broadcasts
    go out with the same payloads in the same order.  The dispatcher
    hands it non-empty batches only.
    """
    from repro.core.scripts import (
        _collect_cut_params,
        _repair_witnesses,
        build_cut_script,
    )

    fleet: FleetColumns = states[0].fleet  # type: ignore[attr-defined]
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("structural_batch", "columnar")
    fleet.begin_epoch()
    if cuts:
        params = _collect_cut_params(net, vp, states, cuts)
        cut_script, next_tour_id = build_cut_script(params, next_tour_id)
        for step in cut_script:
            fleet.cut_step(step, vp, states)
        _repair_witnesses(net, vp, states, [x for (u, v) in cuts for x in (u, v)])
    if links:
        link_into_fleet(net, vp, states, links)
    fleet.end_epoch(states)  # type: ignore[arg-type]
    return next_tour_id


def link_into_fleet(
    net: "Network",
    vp: "VertexPartition",
    states: Sequence["MachineStateBase"],
    links: Sequence[Tuple[int, int, float]],
) -> None:
    """One Lemma 5.9 link phase applied straight to the fleet columns.

    The initialisation protocols (Theorems 5.8 and 8.1) call this once
    per link chunk inside one gauge epoch; a structural batch calls it
    after its cuts.
    """
    from repro.core.scripts import _collect_link_params, build_link_script

    fleet: FleetColumns = states[0].fleet  # type: ignore[attr-defined]
    script = build_link_script(_collect_link_params(net, vp, states, links))
    for step in script:
        fleet.link_step(step, vp, states)
