"""Batch edge deletions (§6.2) — the Las-Vegas randomized case.

Protocol (numbered as in the paper):

1. the deleted edges' Euler values are broadcast and each affected tour's
   components are labelled by bracket matching (Figure 4);
2. every machine labels its surviving graph edges with the component pair
   they cross, using the stored neighbour witnesses (the §5.2 cache; a
   witness that *is* a deleted edge resolves by traversal direction);
3. machine-local cycle deletion keeps ≤ (#components - 1) candidates per
   machine;
4. the candidates are Lenzen-sorted lexicographically by component pair;
5. each machine keeps only the lightest edge per pair within its sorted
   run;
6. cross-machine duplicates are killed by comparing with the predecessor
   run (we share the run boundaries through the Rerouting Lemma — same
   O(1) rounds as the paper's neighbour exchange, simpler to schedule);
7. Lenzen routing ships every surviving candidate to the machines owning
   its two components (component c lives on machine c mod k);
8. a CONGESTED-CLIQUE MST engine (:mod:`repro.cclique`) solves the
   contracted instance — Jurdziński–Nowicki in the paper, our three
   engines per the DESIGN.md substitution;

then the Euler structure applies the k cuts and the replacement links via
Lemma 5.9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cclique.ccedge import CCEdge
from repro.cclique.engines import _cc_local_msf, cc_msf
from repro.comm.lenzen import lenzen_route, lenzen_sort
from repro.comm.rerouting import scheduled_broadcasts
from repro.core.scripts import run_structural_batch
from repro.core.state import MachineStateBase
from repro.errors import InconsistentUpdate, ProtocolError
from repro.euler.brackets import BracketComponents
from repro.euler.tour import ETEdge
from repro.graphs.generators import RngLike
from repro.graphs.graph import normalize
from repro.perf.config import fast_path_enabled
from repro.sim.message import (
    WORDS_COMPONENT_EDGE,
    WORDS_ET_EDGE,
    WORDS_ID,
    Message,
)
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


def batch_delete(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    dels: Sequence[Tuple[int, int]],
    next_tour_id: int,
    engine: str = "sample_gather",
    rng: RngLike = None,
) -> Tuple[int, Dict[str, int]]:
    """Delete a batch of edges; returns (tour counter, summary dict)."""
    dels = sorted({normalize(u, v) for (u, v) in dels})
    if len(dels) != len({d for d in dels}):
        raise InconsistentUpdate("duplicate edge pair within one deletion batch")

    # Step 1: broadcast deletions with their Euler values (if MST edges).
    reqs = []
    for (u, v) in dels:
        src = vp.home(u)
        st = states[src]
        if not st.hosts_edge(u, v):
            raise InconsistentUpdate(f"edge ({u},{v}) not present")
        ete = st.mst_edge((u, v))
        snap = ete.snapshot() if ete is not None else None
        size = st.tour_size[ete.tour] if ete is not None else 0
        reqs.append((src, ("del", u, v, snap, size), WORDS_ET_EDGE + 1))
    with net.ledger.phase("del.broadcast_updates"):
        got = scheduled_broadcasts(net, reqs)

    mst_dels: List[Tuple[ETEdge, int]] = []  # (snapshot, tour size)
    for _src, (_tag, u, v, snap, size) in got:
        if snap is not None:
            mst_dels.append((ETEdge.from_snapshot(list(snap)), size))
    # Local graph-edge removal on the hosting machines.
    for (u, v) in dels:
        for m in vp.edge_machines(u, v):
            states[m].drop_graph_edge(u, v)

    summary = {"dels": len(dels), "mst_dels": len(mst_dels), "components": 0,
               "candidates": 0, "replacements": 0}
    if not mst_dels:
        return next_tour_id, summary

    # Bracket components per affected tour, and the global component ids
    # (every machine derives this identically from the broadcast values).
    by_tour: Dict[int, List[Tuple[ETEdge, int]]] = {}
    for ete, size in mst_dels:
        by_tour.setdefault(ete.tour, []).append((ete, size))
    brackets: Dict[int, BracketComponents] = {}
    comp_base: Dict[int, int] = {}
    total = 0
    for tid in sorted(by_tour):
        pairs = [e.labels() for (e, _s) in by_tour[tid]]
        size = by_tour[tid][0][1]
        brackets[tid] = BracketComponents(pairs, size)
        comp_base[tid] = total
        total += brackets[tid].n_components
    summary["components"] = total

    def comp_of(st: MachineStateBase, x: int) -> Optional[int]:
        tid = st.tour_id(x)
        if tid not in brackets:
            return None
        w = st.witness_edge(x)
        if w is None:
            raise ProtocolError(
                f"machine {st.mid}: no witness for {x} in split tour"
            )
        return comp_base[tid] + brackets[tid].component_of_vertex(w, x)

    def scan(st: MachineStateBase) -> List[CCEdge]:
        """Label every graph edge of ``st``, in key order; keep the crossers."""
        cands: List[CCEdge] = []
        for (x, y), w in sorted(st.graph_edges.items()):
            cx, cy = comp_of(st, x), comp_of(st, y)
            if cx is None and cy is None:
                continue
            if cx is None or cy is None:
                raise ProtocolError(
                    f"edge ({x},{y}) straddles an affected and an unaffected tour"
                )
            if cx != cy:
                cands.append(CCEdge.make(cx, cy, (w, x, y), data=(x, y, w)))
        return cands

    # Steps 2–3: label candidate edges, machine-local cycle deletion.  On
    # the fast path the candidates come from array passes over the
    # resident columns (repro.perf.components), with the same values in
    # the same order and the same errors.
    if fast_path_enabled(net):
        from repro.perf.components import deletion_candidates

        per_machine = deletion_candidates(states, brackets, comp_base, comp_of, scan)
    else:
        per_machine = [scan(st) for st in states]
    local: List[List[Tuple[Tuple[int, int], Tuple, Tuple]]] = []
    n_candidates = 0
    for cands in per_machine:
        # Local cycle deletion (≤ #components - 1 survivors).
        kept = _cc_local_msf(cands, net)
        n_candidates += len(kept)
        local.append([((c.cu, c.cv), c.key, c.data) for c in kept])
    summary["candidates"] = n_candidates

    # Step 4: global Lenzen sort by (component pair, key).
    with net.ledger.phase("del.lenzen_sort"):
        sorted_runs = lenzen_sort(net, local, words=WORDS_COMPONENT_EDGE)

    # Step 5: within each machine, keep only the lightest edge per pair.
    pruned: List[List[Tuple[Tuple[int, int], Tuple, Tuple]]] = []
    for run in sorted_runs:
        out = []
        prev_pair = None
        for item in run:
            if item[0] != prev_pair:
                out.append(item)
                prev_pair = item[0]
        pruned.append(out)

    # Step 6: kill duplicates across run boundaries — every machine learns
    # every run's last pair and drops its leading items whose pair already
    # appeared in an earlier machine's run.
    boundary_reqs = [
        (m, ("last_pair", m, pruned[m][-1][0] if pruned[m] else None), WORDS_ID * 2)
        for m in range(net.k)
    ]
    with net.ledger.phase("del.dedup_boundaries"):
        got = scheduled_broadcasts(net, boundary_reqs)
    last_pair = {m: payload[2] for _src, payload in got for m in [payload[1]]}
    for m in range(net.k):
        prior = None
        for j in range(m - 1, -1, -1):
            if last_pair.get(j) is not None:
                prior = last_pair[j]
                break
        if prior is not None and pruned[m] and pruned[m][0][0] == prior:
            pruned[m] = pruned[m][1:]

    # Step 7: route edges touching component c to machine c mod k.
    msgs = []
    routed: List[List[CCEdge]] = [[] for _ in range(net.k)]
    for m in range(net.k):
        for (pair, key, data) in pruned[m]:
            e = CCEdge.make(pair[0], pair[1], key, data)
            for c in pair:
                dst = c % net.k
                if dst == m:
                    routed[m].append(e)
                else:
                    msgs.append(Message(m, dst, ("cand", e), WORDS_COMPONENT_EDGE))
    with net.ledger.phase("del.route_to_components"):
        inboxes = lenzen_route(net, msgs)
    for dst, received in inboxes.items():
        routed[dst].extend(p[1] for _src, p in received)
    routed = [sorted(set(r)) for r in routed]

    # Step 8: the CONGESTED-CLIQUE MST engine on the contracted instance.
    with net.ledger.phase("del.cc_mst"):
        replacements = cc_msf(net, total, routed, engine=engine, rng=rng)
    summary["replacements"] = len(replacements)

    # Apply the structural batch: the deleted MST edges are cut, the
    # chosen replacement edges are linked (Lemma 5.9).
    cuts = [normalize(e.u, e.v) for (e, _s) in mst_dels]
    links = [e.data for e in replacements]
    with net.ledger.phase("del.structural_update"):
        next_tour_id = run_structural_batch(
            net, vp, states, cuts=cuts, links=links, next_tour_id=next_tour_id
        )
    return next_tour_id, summary
