"""Initialisation (Theorem 5.8): distributed Borůvka + batched Euler build.

Two modes:

* ``distributed`` — the real protocol: Borůvka phases whose per-component
  min-queries are batched through :func:`repro.comm.aggregate.batched_queries`
  and whose chosen edges are linked into the Euler structure k at a time
  with :func:`repro.core.scripts.run_structural_batch`.  Measured cost is
  O(n/k + log n) rounds (bench T5.8).
* ``free`` — oracle bootstrap: compute the MSF and tour labels centrally
  and install them without charging the ledger.  Benches that study
  *update* cost use this so initialisation does not pollute their
  ledgers; correctness tests use both and compare.

Both install through the state seam (:mod:`repro.core.state`), so they
fill either storage; the network's engine picks it (:func:`make_states`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.comm.aggregate import batched_queries
from repro.core.scripts import run_structural_batch
from repro.core.state import MachineState, MachineStateBase
from repro.euler.tour import ETEdge, EulerForest
from repro.graphs.dsu import DisjointSet
from repro.graphs.graph import Edge, WeightedGraph
from repro.graphs.mst import kruskal_msf
from repro.perf.config import fast_path_enabled
from repro.sim.message import WORDS_EDGE
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


def make_states(
    graph: WeightedGraph,
    vp: VertexPartition,
    net: Network,
) -> Tuple[List[MachineStateBase], int]:
    """Install the partitioned graph on the machines (no communication:
    the model hands each machine its vertices' edges at time zero).

    Every vertex starts as its own singleton tour with tour id = vertex
    id; the replicated fresh-tour counter starts just above.  The edges
    and tracked vertices go in first and each machine's gauges are
    sampled once at the end: usage only grows during the install, so the
    peak is what per-edge upkeep would have sampled.  On a fast-path
    network the states are columnar.
    """
    if fast_path_enabled(net):
        from repro.perf.columnar import make_columnar_states

        return make_columnar_states(graph, vp, net)  # type: ignore[return-value]
    states: List[MachineStateBase] = [
        MachineState(m, vp.vertices_of[m], machine=net.machines[m]) for m in range(net.k)
    ]
    for e in graph.edges():
        for m in vp.edge_machines(e.u, e.v):
            states[m].store_graph_edge(e.u, e.v, e.weight, refresh=False)
    for st in states:
        for x in st.tracked:
            st.set_tour_id(x, x)
            st.tour_size[x] = 0
        st.refresh_gauges()
    next_tour_id = max(graph.vertices(), default=-1) + 1
    return states, next_tour_id


def distributed_init(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    vertices: Sequence[int],
    next_tour_id: int,
) -> Tuple[Set[Edge], int]:
    """Borůvka + batched Euler construction; returns (MSF edges, counter)."""
    if fast_path_enabled(net):
        from repro.perf.init_columnar import distributed_init_columnar

        return distributed_init_columnar(
            net, vp, states, vertices, next_tour_id
        )
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("init_build", "scalar")
    k = net.k
    dsu = DisjointSet(vertices)
    msf: Set[Edge] = set()
    with net.ledger.phase("init"):
        while True:
            roots = sorted({dsu.find(v) for v in vertices})
            if len(roots) <= 1:
                break
            per_query: Dict[int, List[Optional[Tuple]]] = {r: [None] * k for r in roots}
            for st in states:
                best: Dict[int, Tuple] = {}
                for (u, v), w in st.graph_edges.items():
                    ru, rv = dsu.find(u), dsu.find(v)
                    if ru == rv:
                        continue
                    cand = ((w, u, v), u, v)
                    for r in (ru, rv):
                        if r in per_query and (r not in best or cand < best[r]):
                            best[r] = cand
                for r, cand in best.items():
                    per_query[r][st.mid] = cand
            answers = batched_queries(net, per_query, min, words=WORDS_EDGE)
            chosen: List[Edge] = []
            for r in sorted(answers):
                ans = answers[r]
                if ans is None:
                    continue
                (wk, u, v) = ans[0], ans[1], ans[2]
                if dsu.union(u, v):
                    chosen.append(Edge(u, v, wk[0]))
            if not chosen:
                break
            msf.update(chosen)
            # Link the new forest edges k at a time (Lemma 5.9).
            chosen.sort(key=lambda e: e.key())
            for base in range(0, len(chosen), k):
                chunk = chosen[base : base + k]
                next_tour_id = run_structural_batch(
                    net,
                    vp,
                    states,
                    cuts=[],
                    links=[(e.u, e.v, e.weight) for e in chunk],
                    next_tour_id=next_tour_id,
                )
    return msf, next_tour_id


def free_init(
    graph: WeightedGraph,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    next_tour_id: int,
) -> Tuple[Set[Edge], int]:
    """Oracle bootstrap: install MSF labels centrally, charging nothing."""
    msf = kruskal_msf(graph)
    ef = EulerForest.build(graph.vertices(), msf)
    # Re-id the oracle's tours so they extend the replicated counter:
    # oracle tour t -> next_tour_id + t.
    offset = next_tour_id
    remap = {t: offset + t for t in ef.tour_size}

    # Min-key incident MST edge per vertex, computed once: the witness
    # fallback below would otherwise rescan every oracle edge for every
    # tracked neighbour on every machine (O(tracked · |MSF|)).
    best_incident: Dict[int, ETEdge] = {}
    for e in ef.edges.values():
        for x in (e.u, e.v):
            cur = best_incident.get(x)
            if cur is None or e.key < cur.key:
                best_incident[x] = e

    for st in states:
        st.add_mst_edges([
            ETEdge(ete.u, ete.v, ete.weight, ete.t_uv, ete.t_vu, remap[ete.tour])
            for ete in (ef.edges.get(key) for key in st.graph_edges)
            if ete is not None
        ])
        st.tour_size = {}
        tours: Dict[int, int] = {}
        for x in st.tracked:
            tid = remap[ef.tour_id(x)]
            tours[x] = tid
            st.tour_size[tid] = ef.tour_size[ef.tour_id(x)]
        # The min-key incident oracle edge is x's witness on every machine:
        # on x's home it is the local pick (a home machine holds all of x's
        # MST edges); elsewhere the home would have broadcast it during a
        # real init.
        witnesses: Dict[int, Optional[Tuple]] = {}
        for x in st.tracked:
            e = best_incident.get(x)
            witnesses[x] = (
                (e.u, e.v, e.weight, e.t_uv, e.t_vu, remap[e.tour]) if e is not None else None
            )
        st.set_tours_and_witnesses(tours, witnesses)
        st.refresh_gauges()
    return set(msf), offset + (max(ef.tour_size, default=-1) + 1)
