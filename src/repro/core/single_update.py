"""One-at-a-time updates (§5.4, Theorem 5.1).

These are the simpler single-update algorithms — kept distinct from the
batch protocols both for fidelity and as the baseline the batch bench
compares against (processing a size-b batch as b single updates costs
Θ(b) rounds; the batch algorithm costs O(1)).

* addition: reroot the tour to u (Lemma 5.5), broadcast v's parent
  interval, run one global max-query over the path predicate of
  Lemma 5.4, swap if the new edge is lighter;
* deletion: broadcast the cut edge's labels, classify every vertex with
  the witness rule of §5.4.2 (Lemma 5.2 + direction tie-breaks), run one
  global min-query over the crossing edges, reconnect.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.comm.aggregate import global_max, global_min
from repro.core.scripts import _repair_witnesses, reroot_machines, run_structural_batch
from repro.core.state import MachineStateBase
from repro.errors import InconsistentUpdate
from repro.euler.predicates import side_of_cut
from repro.euler.tour import ETEdge
from repro.graphs.graph import normalize
from repro.perf.config import fast_path_enabled
from repro.sim.message import WORDS_EDGE, WORDS_ET_EDGE, WORDS_ID, WORDS_UPDATE
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


def run_reroot(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    x: int,
) -> None:
    """Reroot x's tour to x (Lemma 5.5): one broadcast, local shifts."""
    home = states[vp.home(x)]
    tid = home.tour_id(x)
    size = home.tour_size.get(tid, 0)
    if size == 0:
        return
    d = home.outgoing_value(x)
    net.broadcast(vp.home(x), ("reroot", tid, d), WORDS_ID * 2)
    if fast_path_enabled(net):
        states[0].fleet.reroot(tid, d, size)  # type: ignore[attr-defined]
    else:
        reroot_machines(states, tid, d, size)  # type: ignore[arg-type]


def single_add(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    u: int,
    v: int,
    w: float,
    next_tour_id: int,
) -> Tuple[int, Dict[str, int]]:
    """Insert one edge and restore the MST in O(1) rounds (§5.4.1)."""
    u, v = normalize(u, v)
    home_u = states[vp.home(u)]
    if home_u.hosts_edge(u, v):
        raise InconsistentUpdate(f"edge ({u},{v}) already present")
    net.broadcast(vp.home(u), ("add", u, v, w), WORDS_UPDATE)
    for m in vp.edge_machines(u, v):
        states[m].store_graph_edge(u, v, w)

    same_tour = home_u.tour_id(u) == states[vp.home(v)].tour_id(v)
    if not same_tour:
        next_tour_id = run_structural_batch(
            net, vp, states, cuts=[], links=[(u, v, w)], next_tour_id=next_tour_id
        )
        _repair_witnesses(net, vp, states, [u, v])
        return next_tour_id, {"kind": 1, "swapped": 1}

    # Cycle case: find the heaviest MST edge on the u–v path.
    run_reroot(net, vp, states, u)
    home_v = states[vp.home(v)]
    interval = home_v.parent_interval(v)
    assert interval is not None, "v is in u's tour and u is now the root"
    tid = home_v.tour_id(v)
    net.broadcast(vp.home(v), ("parent", tid, interval), WORDS_ID * 3)
    p_in, p_out = interval

    locals_: list = []
    for st in states:
        best = None
        for ete in st.edges_in_tour(tid):
            if ete.e_min <= p_in and ete.e_max >= p_out:
                cand = (ete.key, ete.u, ete.v)
                if best is None or cand > best:
                    best = cand
        locals_.append(best)
    heaviest = global_max(net, locals_, words=WORDS_EDGE)
    assert heaviest is not None, "the u–v path is non-empty"
    if (w, u, v) < heaviest[0]:
        next_tour_id = run_structural_batch(
            net,
            vp,
            states,
            cuts=[normalize(heaviest[1], heaviest[2])],
            links=[(u, v, w)],
            next_tour_id=next_tour_id,
        )
        _repair_witnesses(net, vp, states, [u, v])
        return next_tour_id, {"kind": 2, "swapped": 1}
    _repair_witnesses(net, vp, states, [u, v])
    return next_tour_id, {"kind": 2, "swapped": 0}


def single_delete(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    u: int,
    v: int,
    next_tour_id: int,
) -> Tuple[int, Dict[str, int]]:
    """Delete one edge and restore the MST in O(1) rounds (§5.4.2)."""
    u, v = normalize(u, v)
    home_u = states[vp.home(u)]
    if not home_u.hosts_edge(u, v):
        raise InconsistentUpdate(f"edge ({u},{v}) not present")
    ete = home_u.mst_edge((u, v))
    snap = ete.snapshot() if ete is not None else None
    net.broadcast(vp.home(u), ("delete", u, v, snap), WORDS_ET_EDGE + 1)
    for m in vp.edge_machines(u, v):
        states[m].drop_graph_edge(u, v)
    if snap is None:
        return next_tour_id, {"kind": 0, "reconnected": 0}

    cut = ETEdge.from_snapshot(list(snap))
    c_labels = cut.labels()

    # §5.4.2: classify endpoints with the witness rule, min over crossers.
    locals_: list = []
    for st in states:
        best = None
        witness = {x: st.witness_edge(x) for x in st.tracked}
        for (x, y), wt in st.graph_edges.items():
            wx, wy = witness.get(x), witness.get(y)
            if wx is None or wy is None:
                continue
            if wx.tour != cut.tour or wy.tour != cut.tour:
                continue
            sx = side_of_cut(wx, x, c_labels)
            sy = side_of_cut(wy, y, c_labels)
            if sx != sy:
                cand = ((wt, x, y), x, y, wt)
                if best is None or cand < best:
                    best = cand
        locals_.append(best)
    lightest = global_min(net, locals_, words=WORDS_EDGE)
    links = []
    if lightest is not None:
        _key, x, y, wt = lightest
        links = [(x, y, wt)]
    next_tour_id = run_structural_batch(
        net, vp, states, cuts=[(u, v)], links=links, next_tour_id=next_tour_id
    )
    return next_tour_id, {"kind": 1, "reconnected": int(bool(links))}
