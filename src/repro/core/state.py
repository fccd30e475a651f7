"""Per-machine Euler state (§5.2) and the one seam every reader goes through.

Each machine stores, for its vertices V_m:

* all graph edges incident to V_m (the random-vertex-partition rule);
* the MST subset of those edges, annotated with Euler labels (an edge
  whose endpoints live on two machines exists as two copies kept
  identical by the shared broadcast scripts);
* for every *tracked* vertex x ∈ V_m ∪ N(V_m): a witness — a copy of one
  arbitrary MST edge incident to x — plus x's tour id ("the Euler tour
  information of a single arbitrary edge of that neighbour", §5.2);
* sizes of the tours it references.

Machines never read each other's state directly; every cross-machine fact
arrives through a network primitive.  The state is deliberately redundant
(k copies of shared facts) — that redundancy *is* the model, and the
space gauges are what the space benchmarks measure.

Two storages implement the same seam, fixed per instance at build:

* :class:`MachineState` — dicts of :class:`~repro.euler.tour.ETEdge`
  objects, the reference engine's storage and the oracle;
* :class:`repro.perf.columnar.ColumnarMachineState` — a view of one
  machine's rows in numpy columns stacked across the whole fleet.

Shared code (the §6 protocols, queries, snapshots, the checker, the
serve view) reads and writes through the seam methods below — a
vertex's tour and witness, an MST edge by key, a vertex's incident MST
edges, the MST keys of a tour, iteration/insertion/removal of MST
edges, one :meth:`record`, four reads batched over the fleet (outgoing
values, parent intervals, M′ member rows and the live ``tour_size``
keys, which the columnar storage answers in one pass each) and one
batched graph-edge drop — and never touches storage.  Only this module, the reference engine
(:mod:`repro.core.scripts`) and the columnar store and engine
(:mod:`repro.perf.columnar`) do; ``tests/core/test_state_seam.py``
enforces it.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

import numpy as np

from repro.core.decomposition import MPrimeRows
from repro.errors import ProtocolError
from repro.euler.tour import ETEdge
from repro.graphs.graph import normalize
from repro.sim.machine import Machine
from repro.sim.message import WORDS_EDGE, WORDS_ET_EDGE, WORDS_ID

#: Wire form of a witness: ``(u, v, weight, t_uv, t_vu, tour)``.
Snapshot = Tuple[int, int, float, int, int, int]
#: No MST-edge rows: machine, u, v, weight, t_uv, t_vu, tour.
_NO_ROWS = (np.zeros(0, np.int64),) * 3 + (np.zeros(0),) + (np.zeros(0, np.int64),) * 3


class Forest(NamedTuple):
    """The forest read host-side (zero rounds), as sorted arrays.

    ``u``, ``v`` and ``w`` are the forest edges' keys and weights, sorted
    by ``(u, v)``; ``vertex`` holds every vertex, sorted, and ``label``
    its component label — the minimum vertex id of its tree.  ``weight``
    is the total, summed in the storage's edge order: float addition is
    not associative, and a sum in key order could move the published
    total in its last bits.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    vertex: np.ndarray
    label: np.ndarray
    weight: float


class MachineStateBase:
    """What both storages share: graph edges, tour sizes, derived queries.

    Subclasses store the MST edges, witnesses and tour ids and implement
    the storage half of the seam.
    """

    __slots__ = ("mid", "vertices", "graph_edges", "tour_size", "machine")

    def __init__(self, mid: int, vertices: Iterable[int], machine: Optional[Machine] = None):
        self.mid = mid
        self.vertices: Set[int] = set(vertices)
        self.graph_edges: Dict[Tuple[int, int], float] = {}
        self.tour_size: Dict[int, int] = {}
        self.machine = machine

    # ------------------------------------------------------------------
    # graph-edge bookkeeping (local storage only; no communication)
    # ------------------------------------------------------------------
    def hosts_edge(self, u: int, v: int) -> bool:
        return normalize(u, v) in self.graph_edges

    def store_graph_edge(self, u: int, v: int, weight: float, refresh: bool = True) -> None:
        """Store one graph edge and track its remote endpoint.

        ``refresh=False`` skips the per-call gauge upkeep; a caller that
        installs many edges (:func:`repro.core.init_build.make_states`)
        refreshes once at the end.  Usage only grows during such an
        install, so the sampled peak is the same.
        """
        key = normalize(u, v)
        if key in self.graph_edges:
            raise ProtocolError(f"machine {self.mid}: edge {key} already stored")
        self.graph_edges[key] = weight
        for x in key:
            if x in self.vertices:
                other = key[0] if key[1] == x else key[1]
                self.track(other, refresh)
        self._after_store(key, weight)
        if refresh:
            self._update_gauges()

    def drop_graph_edge(self, u: int, v: int) -> None:
        """Drop one graph edge (the per-edge form of :meth:`drop_graph_edges`)."""
        key = normalize(u, v)
        if self.graph_edges.pop(key, None) is not None:
            self._after_drops([(self.mid, key)])
        # Tracked neighbours are kept even if the last edge to them goes;
        # pruning them is a space optimisation the paper does not need.
        self._update_gauges()

    @staticmethod
    def drop_graph_edges(
        states: Sequence["MachineStateBase"], drops: Sequence[Tuple[int, Tuple[int, int]]]
    ) -> None:
        """Drop the graph edge ``key`` (normalized) of ``states[m]`` for each
        ``(m, key)`` drop; a storage may drop all at once.

        Each touched machine refreshes its gauges once, after its last
        drop.  Drops only lower usage, so the peak is the one a refresh
        after every drop samples.
        """
        gone = [(m, key) for m, key in drops if states[m].graph_edges.pop(key, None) is not None]
        if gone:
            states[gone[0][0]]._after_drops(gone)
        for m in sorted({m for m, _key in drops}):
            states[m]._update_gauges()

    def _after_store(self, key: Tuple[int, int], weight: float) -> None:
        """Storage hook: a graph edge was stored."""

    def _after_drops(self, drops: Sequence[Tuple[int, Tuple[int, int]]]) -> None:
        """Storage hook: graph edges were dropped, ``(m, key)`` each, on
        any machines of the fleet."""

    # ------------------------------------------------------------------
    # the storage seam (implemented by each storage)
    # ------------------------------------------------------------------
    tracked: Any

    def track(self, x: int, refresh: bool = True) -> None:
        raise NotImplementedError

    def untrack(self, x: int) -> None:
        """Forget a removed vertex: its witness and tour id go."""
        raise NotImplementedError

    def tour_id(self, x: int) -> Optional[int]:
        """x's tour id, or None when unknown or untracked."""
        raise NotImplementedError

    def set_tour_id(self, x: int, tid: Optional[int]) -> None:
        raise NotImplementedError

    def witness_snapshot(self, x: int) -> Optional[Snapshot]:
        """x's witness in wire form, or None."""
        raise NotImplementedError

    def set_witness(self, x: int, snap: Optional[Snapshot]) -> None:
        raise NotImplementedError

    def mst_edge(self, key: Tuple[int, int]) -> Optional[ETEdge]:
        """The MST edge stored under ``key`` (read-only), or None."""
        raise NotImplementedError

    def incident_mst(self, x: int) -> List[ETEdge]:
        raise NotImplementedError

    def mst_keys_in_tour(self, tid: int) -> List[Tuple[int, int]]:
        raise NotImplementedError

    def tour_columns(self, tid: int) -> Tuple[np.ndarray, ...]:
        """The MST edges of tour ``tid`` as ``(u, v, w, t_uv, t_vu)`` arrays."""
        raise NotImplementedError

    def iter_mst(self) -> Iterator[ETEdge]:
        raise NotImplementedError

    def mst_count(self) -> int:
        raise NotImplementedError

    def add_mst_edge(self, ete: ETEdge) -> None:
        raise NotImplementedError

    def pop_mst_edge(self, u: int, v: int) -> Optional[ETEdge]:
        raise NotImplementedError

    @staticmethod
    def live_tour_keys(states: Sequence["MachineStateBase"]) -> List[Set[int]]:
        """Per machine, the keys of its ``tour_size`` that one of its tour
        ids, MST edges or witnesses still references; a storage may read
        all machines at once."""
        raise NotImplementedError

    def add_mst_edges(self, etes: List[ETEdge]) -> None:
        """Insert many MST edges; gauges sample as one insert at a time."""
        for ete in etes:
            self.add_mst_edge(ete)

    def set_tours_and_witnesses(
        self, tours: Dict[int, int], witnesses: Dict[int, Optional[Snapshot]]
    ) -> None:
        """Set many tracked vertices' tour ids and witnesses (no sampling)."""
        for x, tid in tours.items():
            self.set_tour_id(x, tid)
        for x, snap in witnesses.items():
            self.set_witness(x, snap)

    def witness_items(self) -> List[Tuple[int, Optional[Snapshot]]]:
        """Every witness entry ``(x, snapshot or None)``, sorted by x."""
        raise NotImplementedError

    def _gauge_counts(self) -> Tuple[int, int, int, int]:
        """(graph edges, MST edges, witness entries, tour-id entries)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived local queries
    # ------------------------------------------------------------------
    def witness_edge(self, x: int) -> Optional[ETEdge]:
        """x's witness as a read-only edge, or None."""
        snap = self.witness_snapshot(x)
        return ETEdge(*snap) if snap is not None else None

    def edges_in_tour(self, tid: int) -> List[ETEdge]:
        """The MST edges of tour ``tid`` (read-only)."""
        u, v, w, t1, t2 = self.tour_columns(tid)
        return [
            ETEdge(*row, tid)
            for row in zip(u.tolist(), v.tolist(), w.tolist(), t1.tolist(), t2.tolist())
        ]

    def outgoing_value(self, x: int) -> Optional[int]:
        """Minimum label departing ``x`` among the locally stored MST edges.

        Correct whenever this machine hosts ``x`` (it then has *all* of
        x's MST edges).
        """
        best: Optional[int] = None
        for e in self.incident_mst(x):
            for label in (e.t_uv, e.t_vu):
                if e.tail_at(label) == x and (best is None or label < best):
                    best = label
        return best

    @staticmethod
    def outgoing_values(
        states: Sequence["MachineStateBase"], reads: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        """:meth:`outgoing_value` of vertex ``x`` on ``states[m]`` for each
        ``(m, x)`` read, in order; a storage may answer all reads at once."""
        return [states[m].outgoing_value(x) for m, x in reads]

    def parent_interval(self, x: int) -> Optional[Tuple[int, int]]:
        """(p_in, p_out) of x's parent edge, or None if x is a root/isolated.

        Only valid on the machine hosting ``x``.
        """
        inc = self.incident_mst(x)
        if not inc:
            return None
        p = min(inc, key=lambda e: e.e_min)
        if p.head_at(p.e_min) != x:
            return None  # x is the root of its tour
        return (p.e_min, p.e_max)

    @staticmethod
    def parent_intervals(
        states: Sequence["MachineStateBase"], reads: Sequence[Tuple[int, int]]
    ) -> List[Optional[Tuple[int, int]]]:
        """:meth:`parent_interval` of vertex ``x`` on ``states[m]`` for each
        ``(m, x)`` read, in order; a storage may answer all reads at once."""
        return [states[m].parent_interval(x) for m, x in reads]

    @staticmethod
    def m_prime_rows(
        states: Sequence["MachineStateBase"], entries: Mapping[int, Sequence[int]]
    ) -> MPrimeRows:
        """Every machine's MST-edge copies in M′ for the tours of
        ``entries`` (each tour's sorted A-entries); a storage may read all
        machines at once."""
        parts = [_NO_ROWS]
        for st in states:
            for tid in entries:
                cols = st.tour_columns(tid)
                n = cols[0].shape[0]
                parts.append((np.full(n, st.mid), *cols, np.full(n, tid)))
        return MPrimeRows.select(*map(np.concatenate, zip(*parts)), entries)

    def pick_witness(self, x: int) -> Optional[ETEdge]:
        """Deterministic witness choice: the incident MST edge of min key."""
        inc = self.incident_mst(x)
        if not inc:
            return None
        e = min(inc, key=lambda e: e.key)
        return ETEdge(e.u, e.v, e.weight, e.t_uv, e.t_vu, e.tour)

    def record(self) -> Dict[str, Any]:
        """This machine's full state as a JSON-compatible record.

        The snapshot format (:func:`repro.core.snapshot.machine_record`)
        and the cross-engine fingerprint tests read this; both storages
        produce the same record for the same state.
        """
        return {
            "mid": self.mid,
            "vertices": sorted(self.vertices),
            "tracked": sorted(self.tracked),
            "graph_edges": [[u, v, w] for (u, v), w in sorted(self.graph_edges.items())],
            "mst": [list(e.snapshot()) for e in sorted(self.iter_mst(), key=lambda e: (e.u, e.v))],
            "witness": {
                str(x): (list(w) if w is not None else None)
                for x, w in self.witness_items()
            },
            "tour_of": {str(x): self.tour_id(x) for x in sorted(self.tracked)},
            "tour_size": {str(t): s for t, s in sorted(self.tour_size.items())},
        }

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def _update_gauges(self) -> None:
        if self.machine is None:
            return
        self._set_gauges(*self._gauge_counts(), len(self.tour_size))

    def _set_gauges(self, g: int, m: int, w: int, t: int, sizes: int) -> None:
        """Write the four gauges in their fixed order (each write samples
        the machine's peak)."""
        machine = self.machine
        if machine is None:
            return
        machine.set_gauge("graph_edges", WORDS_EDGE * g)
        machine.set_gauge("mst_edges", WORDS_ET_EDGE * m)
        machine.set_gauge("witness", WORDS_ET_EDGE * w)
        machine.set_gauge("tours", WORDS_ID * (t + 2 * sizes))

    def refresh_gauges(self) -> None:
        self._update_gauges()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(mid={self.mid}, |V|={len(self.vertices)}, "
            f"|E|={len(self.graph_edges)}, |MST|={self.mst_count()})"
        )


class MachineState(MachineStateBase):
    """Everything machine ``mid`` knows, in dicts (the reference storage)."""

    __slots__ = (
        "tracked",
        "mst",
        "witness",
        "tour_of",
        "_mst_by_vertex",
        "_mst_by_tour",
    )

    def __init__(self, mid: int, vertices: Iterable[int], machine: Optional[Machine] = None):
        super().__init__(mid, vertices, machine)
        self.tracked: Set[int] = set(self.vertices)
        self.mst: Dict[Tuple[int, int], ETEdge] = {}
        self.witness: Dict[int, Optional[ETEdge]] = {}
        self.tour_of: Dict[int, Optional[int]] = {}
        # Acceleration indexes over self.mst (pure caches; rebuilt on
        # restore, kept in sync by the mutators below).
        self._mst_by_vertex: Dict[int, Set[Tuple[int, int]]] = {}
        self._mst_by_tour: Dict[int, Set[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    # tracked vertices, tour ids, witnesses
    # ------------------------------------------------------------------
    def track(self, x: int, refresh: bool = True) -> None:
        if x not in self.tracked:
            self.tracked.add(x)
            self.witness.setdefault(x, None)
            self.tour_of.setdefault(x, None)
            if refresh:
                self._update_gauges()

    def untrack(self, x: int) -> None:
        self.tracked.discard(x)
        self.witness.pop(x, None)
        self.tour_of.pop(x, None)

    def tour_id(self, x: int) -> Optional[int]:
        return self.tour_of.get(x)

    def set_tour_id(self, x: int, tid: Optional[int]) -> None:
        # simlint: disable=SIM005 x is tracked, so its entry exists and the count is unchanged
        self.tour_of[x] = tid

    def witness_snapshot(self, x: int) -> Optional[Snapshot]:
        w = self.witness.get(x)
        return w.snapshot() if w is not None else None

    def set_witness(self, x: int, snap: Optional[Snapshot]) -> None:
        # simlint: disable=SIM005 the protocol's refresh points sample the witness gauge (a per-write sample would move peak_words)
        self.witness[x] = ETEdge.from_snapshot(snap) if snap is not None else None

    def witness_edge(self, x: int) -> Optional[ETEdge]:
        return self.witness.get(x)

    def witness_items(self) -> List[Tuple[int, Optional[Snapshot]]]:
        return [
            (x, w.snapshot() if w is not None else None)
            for x, w in sorted(self.witness.items())
        ]

    # ------------------------------------------------------------------
    # MST-edge bookkeeping
    # ------------------------------------------------------------------
    def mst_edge(self, key: Tuple[int, int]) -> Optional[ETEdge]:
        return self.mst.get(key)

    def iter_mst(self) -> Iterator[ETEdge]:
        return iter(self.mst.values())

    def mst_count(self) -> int:
        return len(self.mst)

    def add_mst_edge(self, ete: ETEdge) -> None:
        key = normalize(ete.u, ete.v)
        if key in self.mst:
            raise ProtocolError(f"machine {self.mid}: MST edge {key} already present")
        self.mst[key] = ete
        self._mst_by_vertex.setdefault(ete.u, set()).add(key)
        self._mst_by_vertex.setdefault(ete.v, set()).add(key)
        self._mst_by_tour.setdefault(ete.tour, set()).add(key)
        self._update_gauges()

    def pop_mst_edge(self, u: int, v: int) -> Optional[ETEdge]:
        key = normalize(u, v)
        ete = self.mst.pop(key, None)
        if ete is not None:
            self._mst_by_vertex.get(ete.u, set()).discard(key)
            self._mst_by_vertex.get(ete.v, set()).discard(key)
            self._mst_by_tour.get(ete.tour, set()).discard(key)
        self._update_gauges()
        return ete

    def retour_mst_edge(self, key: Tuple[int, int], old_tour: int, new_tour: int) -> None:
        """Move an edge between tour buckets after a label transform."""
        if old_tour == new_tour:
            return
        self._mst_by_tour.get(old_tour, set()).discard(key)
        self._mst_by_tour.setdefault(new_tour, set()).add(key)

    def mst_keys_in_tour(self, tid: int) -> List[Tuple[int, int]]:
        return list(self._mst_by_tour.get(tid, ()))

    def edges_in_tour(self, tid: int) -> List[ETEdge]:
        return [self.mst[k] for k in self._mst_by_tour.get(tid, ())]

    def tour_columns(self, tid: int) -> Tuple[np.ndarray, ...]:
        etes = [self.mst[k] for k in sorted(self._mst_by_tour.get(tid, ()))]
        return (
            np.array([e.u for e in etes], dtype=np.int64),
            np.array([e.v for e in etes], dtype=np.int64),
            np.array([e.weight for e in etes], dtype=np.float64),
            np.array([e.t_uv for e in etes], dtype=np.int64),
            np.array([e.t_vu for e in etes], dtype=np.int64),
        )

    def rebuild_indexes(self) -> None:
        """Recompute the acceleration indexes from self.mst (restore path)."""
        self._mst_by_vertex = {}
        self._mst_by_tour = {}
        for key, ete in self.mst.items():
            self._mst_by_vertex.setdefault(ete.u, set()).add(key)
            self._mst_by_vertex.setdefault(ete.v, set()).add(key)
            self._mst_by_tour.setdefault(ete.tour, set()).add(key)

    def incident_mst(self, x: int) -> List[ETEdge]:
        return [self.mst[k] for k in self._mst_by_vertex.get(x, ())]

    def live_tours(self) -> Set[int]:
        """Tour ids referenced by a tour id, an MST edge or a witness."""
        live = {t for t in self.tour_of.values() if t is not None}
        live.update(e.tour for e in self.mst.values())
        live.update(w.tour for w in self.witness.values() if w is not None)
        return live

    @staticmethod
    def live_tour_keys(states: Sequence[MachineStateBase]) -> List[Set[int]]:
        return [
            st.live_tours() & st.tour_size.keys()  # type: ignore[attr-defined]
            for st in states
        ]

    def load_record(self, mrec: Dict[str, Any]) -> None:
        """Install a :meth:`record` (the restore path), then refresh gauges."""
        for x in mrec["tracked"]:
            self.track(x)
        for (u, v, w) in mrec["graph_edges"]:
            self.graph_edges[(u, v)] = w
        for e in mrec["mst"]:
            self.mst[(e[0], e[1])] = ETEdge.from_snapshot(e)
        for x, w in mrec["witness"].items():
            self.witness[int(x)] = ETEdge.from_snapshot(w) if w is not None else None
        self.tour_of = {int(x): t for x, t in mrec["tour_of"].items()}
        self.tour_size = {int(t): s for t, s in mrec["tour_size"].items()}
        self.rebuild_indexes()
        self._update_gauges()

    def _gauge_counts(self) -> Tuple[int, int, int, int]:
        return len(self.graph_edges), len(self.mst), len(self.witness), len(self.tour_of)
