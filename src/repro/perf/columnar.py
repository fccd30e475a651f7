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
  and the endpoints' vertex rows on that machine, with liveness
  ``galive`` (a batch's deleted copies die in one masked pass).

Per-machine dicts map a key to its row (indexes, not objects), and
:class:`ColumnarMachineState` answers the :mod:`repro.core.state` seam
from them.  Rows are appended in place; dead edge rows are dropped by
an occasional compaction.

A Lemma 5.9 phase — a script's cuts, or its links — runs once over the
whole fleet, whatever k is and however many steps it has: every step is
a piecewise shift of one tour's labels, so
:class:`~repro.euler.vectorized.PhaseMap` composes the phase into one
map, and one pass relabels every live edge and witness row of the
touched tours (:meth:`FleetColumns.cut_phase`,
:meth:`FleetColumns.link_phase`).  The per-step work left is
proportional to the script — killing the cut edge's copies, the
``tour_size`` writes, and the reference's step rules on the few vertex
rows that may leave their witness's side (a cut endpoint's home row, a
row without a live witness), in step coordinates read through the map
built so far — so a batch costs O(1) array passes plus Python work
proportional to the batch, not to the machines' state.  Witness
invalidation and re-picking follow the same rules and tie-breaks as
:mod:`repro.core.scripts`; the wire (request order, payloads, word
counts) is the same code, so the ledger matches byte for byte.  The
cross-engine suites in ``tests/perf`` and
``tests/core/test_scripts_property.py`` compare every machine's
:meth:`~repro.core.state.MachineStateBase.record`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.decomposition import MPrimeRows
from repro.core.state import Forest, MachineStateBase, Snapshot
from repro.errors import ProtocolError
from repro.euler.tour import ETEdge
from repro.euler.vectorized import PhaseMap, member_mask, reroot_labels
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
        # Gauge epoch: its nesting depth, per machine (MST count, witness
        # count) at its start, and the copies killed / appended since
        # (see end_epoch).
        self._depth = 0
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

    def drop_graph_rows(self, drops: Sequence[Tuple[int, Tuple[int, int]]]) -> None:
        """Kill the graph-edge row of ``key`` on machine ``m`` for each
        ``(m, key)`` drop, in one masked pass over the rows."""
        k, ng = self.k, self.ng
        want = {(m, u, v) for m, (u, v) in drops}
        hit = np.flatnonzero(self.galive[:ng] & member_mask(
            self.gu[:ng] * k + self.gmid[:ng], {u * k + m for m, u, _v in want}
        ))
        dead = [
            r for r, m, u, v in zip(
                hit.tolist(), self.gmid[hit].tolist(), self.gu[hit].tolist(),
                self.gv[hit].tolist(),
            )
            if (m, u, v) in want
        ]
        self.galive[dead] = False
        self._n_gdead += len(dead)
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

    def _incidences(
        self, reads: Sequence[Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``(machine, vertex)`` read's live incident edge rows, in
        one pass over the edge rows.

        Returns ``(code, row, out)`` per incidence: ``code`` is
        ``x * k + m`` of the read it answers, ``out`` the row's label
        departing ``x``.
        """
        k, n = self.k, self.ne
        want = {x * k + m for m, x in reads}
        mid, alive = self.emid[:n], self.ealive[:n]
        codes, rows, outs = [], [], []
        for ends, labels in ((self.eu, self.et1), (self.ev, self.et2)):
            code = ends[:n] * k + mid
            hit = np.flatnonzero(alive & member_mask(code, want))
            codes.append(code[hit])
            rows.append(hit)
            outs.append(labels[hit])
        return np.concatenate(codes), np.concatenate(rows), np.concatenate(outs)

    @staticmethod
    def _least(code: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Per read code, the index of its incidence of least ``key``."""
        order = np.lexsort((key, code))
        code = code[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = code[1:] != code[:-1]
        return order[first]

    def outgoing_values(self, reads: Sequence[Tuple[int, int]]) -> List[Optional[int]]:
        """Min label departing ``x`` on machine ``m``, per ``(m, x)`` read."""
        if not reads:
            return []
        code, _rows, out = self._incidences(reads)
        i = self._least(code, out)
        best = dict(zip(code[i].tolist(), out[i].tolist()))
        return [best.get(x * self.k + m) for m, x in reads]

    def parent_intervals(
        self, reads: Sequence[Tuple[int, int]]
    ) -> List[Optional[Tuple[int, int]]]:
        """``(p_in, p_out)`` of x's parent edge on machine ``m``, per
        ``(m, x)`` read, or None for a root or an isolated vertex: the
        incident edge of least ``e_min``, if the traversal there enters x
        (the label departing x is then its ``e_max``)."""
        if not reads:
            return []
        code, rows, out = self._incidences(reads)
        lo = np.minimum(self.et1[rows], self.et2[rows])
        i = self._least(code, lo)
        hi = np.maximum(self.et1[rows[i]], self.et2[rows[i]])
        parent = {
            c: (a, b)
            for c, a, b, o in zip(code[i].tolist(), lo[i].tolist(), hi.tolist(), out[i].tolist())
            if o == b
        }
        return [parent.get(x * self.k + m) for m, x in reads]

    def m_prime_rows(self, entries: Mapping[int, Sequence[int]]) -> MPrimeRows:
        """Every machine's MST-edge copies in M′ for the tours of
        ``entries``, in one masked pass over the edge rows."""
        n = self.ne
        rows = np.flatnonzero(self.ealive[:n] & member_mask(self.etour[:n], entries))
        return MPrimeRows.select(
            self.emid[rows], self.eu[rows], self.ev[rows], self.ew[rows],
            self.et1[rows], self.et2[rows], self.etour[rows], entries,
        )

    def live_tour_keys(self, sizes: Sequence[Mapping[int, int]]) -> List[Set[int]]:
        """Per machine ``m``, the keys of ``sizes[m]`` that a live vertex,
        witness or edge row of ``m`` references: one ``searchsorted`` per
        tour column against the sorted union of the keys flags the
        referenced (machine, tour) cells."""
        keys = np.unique(np.fromiter(
            (t for size in sizes for t in size), dtype=np.int64
        ))
        ref = np.zeros((self.k, keys.shape[0]), dtype=bool)
        nv, ne = self.nv, self.ne
        vtour = self.vtour[:nv]
        for tours, mids, alive in (
            (vtour, self.vmid[:nv], vtour >= 0),
            (self.wtour[:nv], self.vmid[:nv], self.walive[:nv]),
            (self.etour[:ne], self.emid[:ne], self.ealive[:ne]),
        ):
            pos = np.searchsorted(keys, tours)
            hit = alive & (pos < keys.shape[0])
            hit[hit] = keys[pos[hit]] == tours[hit]
            ref[mids[hit], pos[hit]] = True
        return [
            {t for t in keys[ref[m]].tolist() if t in size}
            for m, size in enumerate(sizes)
        ]

    def _witness_picks(self, reads: Sequence[Tuple[int, int]]) -> Dict[int, List[int]]:
        """Per read code, its incident rows in witness-choice order (min
        :attr:`ETEdge.key` first): a pick is the first row still alive."""
        if not reads:
            return {}
        code, rows, _out = self._incidences(reads)
        # lexsort's last key is primary: by read, then (weight, u, v)
        order = np.lexsort((self.ev[rows], self.eu[rows], self.ew[rows], code))
        picks: Dict[int, List[int]] = {}
        for c, r in zip(code[order].tolist(), rows[order].tolist()):
            picks.setdefault(c, []).append(r)
        return picks

    # ------------------------------------------------------------------
    # gauge epochs: sample the space gauges where the per-edge storage did
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Open a gauge epoch; epochs nest, and only the outermost one
        counts (an init wraps its link batches in one)."""
        self._depth += 1
        if self._depth > 1:
            return
        self._epoch = [(len(self.erow[m]), self.wkeys[m]) for m in range(self.k)]
        self._killed = [0] * self.k
        self._added = [0] * self.k

    def end_epoch(self, states: Sequence["ColumnarMachineState"]) -> None:
        """Close a gauge epoch; closing the outermost one refreshes every
        machine's gauges as per-edge storage would have.

        Storage that pops each killed copy and then inserts each appended
        one samples the machine's peak after every single change; the
        samples that can set the peak are the first pop (or the first
        insert), the last insert, and the final refresh, replayed here in
        that order with the same gauge values.
        """
        self._depth -= 1
        if self._depth:
            return
        for m, st in enumerate(states):
            m0, w0 = self._epoch[m]
            st.replay_gauges(m0, self._killed[m], self._added[m], w0)
        if self._n_dead > max(64, self.ne // 2):
            self._compact_edges()

    # ------------------------------------------------------------------
    # Lemma 5.9 phases: a script's steps composed into one relabelling
    # ------------------------------------------------------------------
    @staticmethod
    def _relabel(
        pm: PhaseMap, rows: np.ndarray, tours: np.ndarray, t1: np.ndarray,
        t2: np.ndarray,
    ) -> None:
        """Carry the rows' label pairs and tours through a phase map."""
        tours[rows], t1[rows], t2[rows] = pm.edge_images(tours[rows], t1[rows], t2[rows])

    def cut_phase(
        self, script: Sequence["CutStep"], vp: "VertexPartition",
        states: Sequence[MachineStateBase],
    ) -> None:
        """Apply a cut script (mirrors ``repro.core.scripts.apply_cut_step``).

        A vertex row with a live witness takes its witness's side of every
        cut, so most rows need no step of their own, and the columns stay
        in phase-start coordinates while a loop over the steps does what
        is proportional to the script.  It kills each cut edge's copies,
        writes ``tour_size``, and runs the reference's step rules on the
        rows that may leave their witness: the cut endpoints' home rows
        and rows without a live witness in a split tour, reading an edge
        row's labels through the map built so far.  Any other row whose
        witness is a cut edge is a remote copy of a cut endpoint: it is
        left witness-dead and unknown, and the repair broadcast that
        follows every cut phase overwrites its witness and tour (as it
        re-picks a home row's dead witness).  Then one pass relabels
        every live edge and witness row of the split tours, and every
        other vertex row there takes its witness's tour.
        """
        from repro.core.scripts import _transform_cut

        pm = PhaseMap()
        k, nv = self.k, self.nv
        keys = [normalize(*step.edge) for step in script]
        split = {step.spec.old_tour for step in script}
        fresh = {step.spec.inside_tour for step in script}
        walive, vtour = self.walive[:nv], self.vtour[:nv]

        stepped = set(np.flatnonzero(~walive & member_mask(vtour, split - fresh)).tolist())
        for key in keys:
            for x in key:
                i = self.vrow[vp.home(x)].get(x)
                if i is not None:
                    stepped.add(i)
        cut = set(keys)
        wlo = np.minimum(self.wu[:nv], self.wv[:nv])
        hit = np.flatnonzero(walive & member_mask(wlo, {u for u, _v in keys}))
        whi = np.maximum(self.wu[hit], self.wv[hit])
        dying = [
            i for i, a, b in zip(hit.tolist(), wlo[hit].tolist(), whi.tolist())
            if (a, b) in cut and i not in stepped
        ]

        tour = {i: int(vtour[i]) for i in stepped}
        wit: Dict[int, Optional[ETEdge]] = {}
        for i in stepped:
            snap = self.witness_of_row(i)
            wit[i] = None if snap is None else ETEdge(*snap)
        picks = self._witness_picks(
            [(int(self.vmid[i]), int(self.vx[i])) for i in sorted(stepped) if self.vown[i]]
        )

        def pick(m: int, x: int) -> Optional[ETEdge]:
            """x's witness choice on machine m, in step coordinates."""
            for r in picks.get(x * k + m, ()):
                if self.ealive[r]:
                    t = int(self.etour[r])
                    t1, l1 = pm.image(t, int(self.et1[r]))
                    t2, l2 = pm.image(t, int(self.et2[r]))
                    if t1 != t2:
                        raise ProtocolError("edge straddles a split; labels corrupt")
                    return ETEdge(int(self.eu[r]), int(self.ev[r]), float(self.ew[r]),
                                  l1, l2, t1)
            return None

        for step, key in zip(script, keys):
            spec = step.spec
            old = spec.old_tour
            head = step.snapshot.head_at(spec.e_min)
            # 1. Classify the stepped rows of the split tour.
            new: Dict[int, int] = {}
            for i in stepped:
                if tour[i] != old:
                    continue
                x, w = int(self.vx[i]), wit[i]
                if w is None:
                    if not self.vown[i]:
                        new[i] = -1  # unknown until the repair broadcast
                        continue
                    m = int(self.vmid[i])
                    w = pick(m, x)
                    if w is None:
                        raise ProtocolError(
                            f"machine {m}: owned vertex {x} in tour "
                            f"{old} has no incident MST edge"
                        )
                if normalize(w.u, w.v) == key:
                    inside = head == x
                else:
                    inside = spec.e_min < w.e_min and w.e_max < spec.e_max
                new[i] = spec.inside_tour if inside else old

            # 2. Remove the cut edge's copies; invalidate witnesses of it.
            for m in range(k):
                self.kill_edge_row(m, key)
            for i, w in wit.items():
                if w is not None and normalize(w.u, w.v) == key:
                    wit[i] = None

            # 3. Relabel the stepped rows' witnesses of the split tour.
            for w in wit.values():
                if w is not None:
                    _transform_cut(w, spec)
            pm.split(spec)

            # 4. Tour bookkeeping.
            fresh_tour, root_size = spec.inside_tour, spec.root_side_size
            inside_size = spec.inside_size
            for st in states:
                st.tour_size[old] = root_size
                st.tour_size[fresh_tour] = inside_size
            tour.update(new)

        # One pass: the live rows of the split tours to end-of-phase labels.
        ne = self.ne
        erows = np.flatnonzero(self.ealive[:ne] & pm.touched(self.etour[:ne]))
        self._relabel(pm, erows, self.etour, self.et1, self.et2)
        walive[dying] = False
        vtour[dying] = -1  # unknown until the repair broadcast
        plain = walive.copy()
        plain[list(stepped)] = False
        vrows = np.flatnonzero(plain & pm.touched(vtour))
        wrows = np.flatnonzero(plain & pm.touched(self.wtour[:nv]))
        self._relabel(pm, wrows, self.wtour, self.wt1, self.wt2)
        vtour[vrows] = self.wtour[vrows]
        for i in stepped:
            vtour[i] = tour[i]
            w = wit[i]
            if w is None:
                walive[i] = False
            else:
                self.wt1[i], self.wt2[i], self.wtour[i] = w.t_uv, w.t_vu, w.tour

    def link_phase(
        self, script: Sequence["LinkStep"], vp: "VertexPartition",
        states: Sequence[MachineStateBase],
    ) -> None:
        """Apply a link script (mirrors ``repro.core.scripts.apply_link_step``).

        A loop over the steps composes the joins, writes ``tour_size`` and
        carries each new edge through the later joins; then one pass
        relabels every live edge and witness row of the joined tours and
        renames their vertex rows' tours, the new edges' copies are
        appended in step order, and each endpoint row without a live
        witness takes its new edge, first step first.
        """
        from repro.core.scripts import _transform_link

        pm = PhaseMap()
        new_edges: List[ETEdge] = []
        for step in script:
            spec = step.spec
            for ete in new_edges:
                _transform_link(ete, spec)
            pm.join(spec)
            lab_in, lab_out = spec.new_edge_labels
            new_edges.append(
                ETEdge(*normalize(*step.edge), step.weight, lab_in, lab_out, spec.tour1)
            )
            tour1, tour2, size = spec.tour1, spec.tour2, spec.new_size
            for st in states:
                st.tour_size[tour1] = size
                st.tour_size.pop(tour2, None)

        nv, ne = self.nv, self.ne
        erows = np.flatnonzero(self.ealive[:ne] & pm.touched(self.etour[:ne]))
        self._relabel(pm, erows, self.etour, self.et1, self.et2)
        wrows = np.flatnonzero(self.walive[:nv] & pm.touched(self.wtour[:nv]))
        self._relabel(pm, wrows, self.wtour, self.wt1, self.wt2)
        vtour = self.vtour[:nv]
        vrows = np.flatnonzero(pm.touched(vtour))
        vtour[vrows] = pm.tour_images(vtour[vrows])
        for step, ete in zip(script, new_edges):
            u, v = step.edge
            for m in sorted({vp.home(u), vp.home(v)}):
                self.add_edge_row(m, ete.u, ete.v, ete.weight, ete.t_uv, ete.t_vu, ete.tour)
        for step, ete in zip(script, new_edges):
            snap = ete.snapshot()
            for x in step.edge:
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
    def forest(self) -> Forest:
        """The forest edges, sorted by key, and every vertex's label.

        A vertex's tour id names its tree, so its label — the tree's
        minimum vertex id — is the minimum over the hosted vertices
        sharing that tour id.  An edge hosted on two machines has two
        rows; the first stored is kept, and the total weight sums the
        kept rows in row order.
        """
        home = np.flatnonzero(self.vown[: self.nv])
        xs, ts = self.vx[home], self.vtour[home]
        order = np.lexsort((xs, ts))
        ts_sorted = ts[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = ts_sorted[1:] != ts_sorted[:-1]
        group = np.cumsum(first) - 1
        labels = np.empty_like(xs)
        labels[order] = xs[order][first][group]
        by_x = np.argsort(xs, kind="stable")
        vertex = xs[by_x]
        live = np.flatnonzero(self.ealive[: self.ne])
        eu, ev, ew = self.eu[live], self.ev[live], self.ew[live]
        by_key = np.lexsort((ev, eu))  # stable: stored order within a key
        su, sv = eu[by_key], ev[by_key]
        keep = np.ones(by_key.shape[0], dtype=bool)
        keep[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
        rows = by_key[keep]  # each edge's first-stored copy, in key order
        stored = np.zeros(by_key.shape[0], dtype=bool)
        stored[rows] = True
        weight = sum(ew[stored].tolist())
        return Forest(eu[rows], ev[rows], ew[rows], vertex, labels[by_x], weight)


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
        return self.fleet.outgoing_values([(self.mid, x)])[0]

    @staticmethod
    def outgoing_values(
        states: Sequence[MachineStateBase], reads: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        return states[0].fleet.outgoing_values(reads)  # type: ignore[attr-defined]

    @staticmethod
    def parent_intervals(
        states: Sequence[MachineStateBase], reads: Sequence[Tuple[int, int]]
    ) -> List[Optional[Tuple[int, int]]]:
        return states[0].fleet.parent_intervals(reads)  # type: ignore[attr-defined]

    @staticmethod
    def m_prime_rows(
        states: Sequence[MachineStateBase], entries: Mapping[int, Sequence[int]]
    ) -> MPrimeRows:
        return states[0].fleet.m_prime_rows(entries)  # type: ignore[attr-defined]

    @staticmethod
    def live_tour_keys(states: Sequence[MachineStateBase]) -> List[Set[int]]:
        return states[0].fleet.live_tour_keys(  # type: ignore[attr-defined]
            [st.tour_size for st in states]
        )

    # ------------------------------------------------------------------
    # graph edges: the resident §6.2 table follows the dict
    # ------------------------------------------------------------------
    def _after_store(self, key: Tuple[int, int], weight: float) -> None:
        self.fleet.add_graph_row(self.mid, key[0], key[1], weight)

    def _after_drops(self, drops: Sequence[Tuple[int, Tuple[int, int]]]) -> None:
        self.fleet.drop_graph_rows(drops)

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
        _collect_link_params,
        _repair_witnesses,
        build_cut_script,
        build_link_script,
        gauge_epoch,
    )

    fleet: FleetColumns = states[0].fleet  # type: ignore[attr-defined]
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("structural_batch", "columnar")
    with gauge_epoch(net, states):
        if cuts:
            params = _collect_cut_params(net, vp, states, cuts)
            cut_script, next_tour_id = build_cut_script(params, next_tour_id)
            fleet.cut_phase(cut_script, vp, states)
            _repair_witnesses(net, vp, states, [x for (u, v) in cuts for x in (u, v)])
        if links:
            link_script = build_link_script(_collect_link_params(net, vp, states, links))
            fleet.link_phase(link_script, vp, states)
    return next_tour_id
