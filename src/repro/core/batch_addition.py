"""Batch edge additions (§6.1).

Protocol (each numbered step is O(1) rounds; O(k) broadcasts go through
the Rerouting Lemma):

1. the k new edges are broadcast — everyone learns the set A;
2. home machines of A-vertices broadcast their tour ids and parent
   intervals (the simulated-reroot information of steps 2–3);
3. every machine determines locally, for each of its *own* vertices,
   whether it is in B (≥ 3 incident Steiner edges — a pure local check
   since a home machine holds all of a vertex's edges) and broadcasts the
   B-anchors it found;
4. every machine builds the identical induced tree T / path-set list
   (Lemma 6.3, via :mod:`repro.core.decomposition`);
5. one max-query per path set, collated round-robin (§6.1 step 6) through
   :func:`repro.comm.aggregate.batched_queries`;
6. every machine solves the identical contracted instance M'' and derives
   the cut/link decisions;
7. the Euler structure is updated k edges at a time (Lemma 5.9) and new
   neighbour witnesses are broadcast.

The whole batch is deterministic — Theorem 6.1's addition case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.aggregate import batched_queries
from repro.comm.rerouting import scheduled_broadcasts
from repro.core.decomposition import (
    AnchorInfo,
    PathSet,
    build_paths,
    in_m_prime,
    solve_contracted,
)
from repro.core.scripts import run_structural_batch, _repair_witnesses
from repro.core.state import MachineStateBase
from repro.errors import InconsistentUpdate
from repro.graphs.graph import normalize
from repro.perf.config import fast_path_enabled
from repro.perf.steiner import m_prime_members, steiner_degrees
from repro.sim.message import WORDS_EDGE, WORDS_ID, WORDS_UPDATE
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


def batch_add(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    adds: Sequence[Tuple[int, int, float]],
    next_tour_id: int,
) -> Tuple[int, Dict[str, int]]:
    """Insert a batch of edges; returns (tour counter, summary dict)."""
    adds = [(*normalize(u, v), w) for (u, v, w) in adds]
    if len({(u, v) for (u, v, _w) in adds}) != len(adds):
        raise InconsistentUpdate("duplicate edge pair within one addition batch")

    # Step 1: broadcast the new edges from the machines they arrived at.
    with net.ledger.phase("add.broadcast_updates"):
        scheduled_broadcasts(
            net,
            [(vp.home(u), ("add", u, v, w), WORDS_UPDATE) for (u, v, w) in adds],
        )
    for (u, v, w) in adds:
        for m in vp.edge_machines(u, v):
            if states[m].hosts_edge(u, v):
                raise InconsistentUpdate(f"edge ({u},{v}) already present")
            states[m].store_graph_edge(u, v, w)

    # Step 2: home machines of A-vertices broadcast anchor info.
    a_vertices = sorted({x for (u, v, _w) in adds for x in (u, v)})
    reqs = []
    for x in a_vertices:
        st = states[vp.home(x)]
        tid = st.tour_id(x)
        size = st.tour_size.get(tid, 0)
        interval = st.parent_interval(x)
        if interval is None:
            interval = (-1, size)  # tour root or isolated vertex
        reqs.append(
            (vp.home(x), ("anchorA", x, tid, interval, size), WORDS_ID * 5)
        )
    with net.ledger.phase("add.anchor_broadcast"):
        got = scheduled_broadcasts(net, reqs)
    a_anchors: Dict[int, AnchorInfo] = {}
    a_entries_by_tour: Dict[int, List[int]] = {}
    tour_sizes: Dict[int, int] = {}
    for _src, (_tag, x, tid, interval, size) in got:
        a_anchors[x] = AnchorInfo(x, tid, tuple(interval))
        a_entries_by_tour.setdefault(tid, []).append(interval[0])
        tour_sizes[tid] = size
    for entries in a_entries_by_tour.values():
        entries.sort()

    # Step 3: B-anchors — a home machine checks each of its own vertices.
    # Fast path: the incident-M′ degree of every vertex of a tour falls
    # out of one batched membership pass (repro.perf.steiner) instead of
    # per-vertex bisect loops; the counted edge sets are identical.
    use_fast = fast_path_enabled(net)
    eligible = {
        tid: entries
        for tid, entries in a_entries_by_tour.items()
        if len(entries) >= 2
    }
    b_reqs = []
    for st in states:
        if use_fast:
            # Only a vertex with at least 3 incident M′ edges can qualify,
            # so the degree map names every candidate.
            deg_map = steiner_degrees(st, eligible)
            owned = sorted(
                x for x, deg in deg_map.items()
                if deg >= 3 and x in st.vertices and x not in a_anchors
            )
        else:
            owned = [x for x in sorted(st.vertices) if x not in a_anchors]
        for x in owned:
            tid = st.tour_id(x)
            entries = eligible.get(tid)
            if entries is None:
                continue
            if use_fast:
                deg = deg_map[x]
            else:
                deg = sum(
                    1
                    for e in st.incident_mst(x)
                    if e.tour == tid and in_m_prime(e.labels(), entries)
                )
            if deg >= 3:
                interval = st.parent_interval(x)
                if interval is None:
                    interval = (-1, tour_sizes.get(tid, 0))
                b_reqs.append(
                    (st.mid, ("anchorB", x, tid, interval), WORDS_ID * 4)
                )
    with net.ledger.phase("add.anchor_broadcast"):
        got_b = scheduled_broadcasts(net, b_reqs)
    anchors: List[AnchorInfo] = list(a_anchors.values())
    for _src, (_tag, x, tid, interval) in got_b:
        anchors.append(AnchorInfo(x, tid, tuple(interval)))

    # Step 4: identical path-set construction everywhere.
    paths = build_paths(anchors, a_entries_by_tour)

    # Step 5: one max-query per path set.
    per_query: Dict[Tuple[int, int], List[Optional[Tuple]]] = {
        p.query_id: [None] * net.k for p in paths
    }
    paths_by_tour: Dict[int, List[PathSet]] = {}
    for p in paths:
        paths_by_tour.setdefault(p.tour, []).append(p)
    for st in states:
        best: Dict[Tuple[int, int], Tuple] = {}
        if use_fast:
            # Batched membership first; only the Steiner slice reaches
            # the per-edge path matching below.
            members = [
                (ete, labels)
                for tid in paths_by_tour
                for (ete, labels) in m_prime_members(
                    st, tid, a_entries_by_tour[tid]
                )
            ]
        else:
            members = []
            for ete in st.iter_mst():
                tour_paths = paths_by_tour.get(ete.tour)
                if not tour_paths:
                    continue
                labels = ete.labels()
                entries = a_entries_by_tour[ete.tour]  # kept sorted above
                if in_m_prime(labels, entries, assume_sorted=True):
                    members.append((ete, labels))
        for ete, labels in members:
            for p in paths_by_tour[ete.tour]:
                if p.matches_interval(labels):
                    cand = (ete.key, ete.u, ete.v)
                    cur = best.get(p.query_id)
                    if cur is None or cand > cur:
                        best[p.query_id] = cand
                    break  # path sets are disjoint
        for qid, cand in best.items():
            per_query[qid][st.mid] = cand
    with net.ledger.phase("add.path_max_queries"):
        answers = batched_queries(net, per_query, max, words=WORDS_EDGE)

    # Step 6: identical contraction solve everywhere.
    decision = solve_contracted(paths, answers, adds)

    # Step 7: apply the structural batch and refresh witnesses.
    with net.ledger.phase("add.structural_update"):
        next_tour_id = run_structural_batch(
            net, vp, states, cuts=decision.cuts, links=decision.links,
            next_tour_id=next_tour_id,
        )
        # Machines that started tracking a new remote endpoint need its
        # witness/tour info; endpoints' homes broadcast it (O(k) → O(1)).
        _repair_witnesses(net, vp, states, a_vertices)

    summary = {
        "adds": len(adds),
        "anchors": len(anchors),
        "paths": len(paths),
        "cuts": len(decision.cuts),
        "links": len(decision.links),
        "rejected": len(decision.rejected),
    }
    return next_tour_id, summary
