"""Deep consistency checker for the distributed Euler state.

Used by tests and by :meth:`DynamicMST.check`: verifies, from first
principles, that the union of the machines' local views forms the unique
MSF of the current graph with a valid Euler-tour labelling, that replicas
agree, and that witnesses/tour maps are coherent.  Expensive — O(n + m)
per call — and entirely outside the measured protocols.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.state import MachineStateBase
from repro.errors import ProtocolError
from repro.euler.tour import ETEdge, check_valid_tour
from repro.graphs.graph import WeightedGraph, normalize
from repro.graphs.mst import kruskal_msf, msf_key_multiset
from repro.sim.partition import VertexPartition


def check_global_consistency(
    states: Sequence[MachineStateBase],
    graph: WeightedGraph,
    vp: VertexPartition,
) -> None:
    # 1. Graph-edge replication: each edge stored exactly on its endpoint
    #    machines, with the right weight.
    seen: Dict[Tuple[int, int], float] = {}
    for st in states:
        for (u, v), w in st.graph_edges.items():
            machines = set(vp.edge_machines(u, v))
            if st.mid not in machines:
                raise ProtocolError(f"machine {st.mid} stores foreign edge ({u},{v})")
            seen[(u, v)] = w
    expect = {(e.u, e.v): e.weight for e in graph.edges()}
    if seen != expect:
        missing = set(expect) - set(seen)
        extra = set(seen) - set(expect)
        raise ProtocolError(f"graph replicas diverge: missing={missing} extra={extra}")
    for st in states:
        for x in st.vertices:
            pass  # vertex sets are fixed by the partition; nothing to check

    # 2. MST copies agree across machines and form the unique MSF.
    copies: Dict[Tuple[int, int], List[ETEdge]] = {}
    for st in states:
        for ete in st.iter_mst():
            key = (ete.u, ete.v)
            if key not in st.graph_edges:
                raise ProtocolError(f"machine {st.mid}: MST edge {key} not a graph edge")
            copies.setdefault(key, []).append(ete)
    for key, etes in copies.items():
        snaps = {e.snapshot() for e in etes}
        if len(snaps) != 1:
            raise ProtocolError(f"MST copies diverge for {key}: {snaps}")
        machines_holding = {st.mid for st in states if st.mst_edge(key) is not None}
        if machines_holding != set(vp.edge_machines(*key)):
            raise ProtocolError(f"MST edge {key} missing on an endpoint machine")
    forest = [etes[0] for etes in copies.values()]
    got = msf_key_multiset(e.as_edge() for e in forest)
    want = msf_key_multiset(kruskal_msf(graph))
    if got != want:
        raise ProtocolError(f"MST is wrong: got {got} want {want}")

    # 3. Valid Euler tours with consistent sizes.
    by_tour: Dict[int, List[ETEdge]] = {}
    for e in forest:
        by_tour.setdefault(e.tour, []).append(e)
    sizes: Dict[int, int] = {}
    for st in states:
        for tid, s in st.tour_size.items():
            if tid in sizes and sizes[tid] != s:
                raise ProtocolError(f"tour {tid} size disagrees: {sizes[tid]} vs {s}")
            sizes[tid] = s
    for tid, edges in by_tour.items():
        if tid not in sizes:
            raise ProtocolError(f"tour {tid} has edges but no recorded size")
        if not check_valid_tour(edges, sizes[tid]):
            raise ProtocolError(f"tour {tid} labels are not a valid Euler walk")
        if sizes[tid] != 2 * len(edges):
            raise ProtocolError(
                f"tour {tid}: size {sizes[tid]} != 2 * {len(edges)} edges"
            )

    # 4. tour_of matches the forest's actual components.
    tour_truth: Dict[int, int] = {}
    for e in forest:
        for x in (e.u, e.v):
            if x in tour_truth and tour_truth[x] != e.tour:
                raise ProtocolError(f"vertex {x} has edges in two tours")
            tour_truth[x] = e.tour
    for st in states:
        for x in st.tracked:
            tid = st.tour_id(x)
            if x in tour_truth:
                if tid != tour_truth[x]:
                    raise ProtocolError(
                        f"machine {st.mid}: tour_of[{x}]={tid}, truth {tour_truth[x]}"
                    )
            else:
                # Isolated vertex: must be a singleton tour of size 0.
                if tid is None:
                    raise ProtocolError(f"machine {st.mid}: no tour for tracked {x}")
                if sizes.get(tid, 0) != 0:
                    raise ProtocolError(
                        f"machine {st.mid}: isolated {x} in tour {tid} of size "
                        f"{sizes.get(tid)}"
                    )

    # 5. Witnesses: a current MST edge incident to the vertex, labels exact.
    true_edges = {(e.u, e.v): e for e in forest}
    for st in states:
        for x in st.tracked:
            w = st.witness_edge(x)
            if w is None:
                if x in tour_truth:
                    raise ProtocolError(
                        f"machine {st.mid}: vertex {x} has MST edges but no witness"
                    )
                continue
            key = normalize(w.u, w.v)
            truth = true_edges.get(key)
            if truth is None:
                raise ProtocolError(f"machine {st.mid}: witness {key} for {x} is stale")
            if x not in key:
                raise ProtocolError(f"machine {st.mid}: witness {key} not incident to {x}")
            if w.snapshot() != truth.snapshot():
                raise ProtocolError(
                    f"machine {st.mid}: witness labels stale for {x}: "
                    f"{w.snapshot()} vs {truth.snapshot()}"
                )
