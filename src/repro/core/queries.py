"""Read-only query protocols over the maintained structure.

The dynamic MST is only useful if the cluster can *ask it things* without
rebuilding: these are the O(1)-round query protocols the Euler labels
make possible.

* connectivity — u and v are connected iff their tour ids agree; one
  converge-cast of two ids (Italiano et al.'s dynamic-connectivity
  query, answered from the exact structure);
* batched connectivity — q queries collate round-robin, O(q/k + 1)
  rounds (the same schedule as §6.1 step 6);
* path maximum (bottleneck edge) — the heaviest MST edge between u and
  v, via the Lemma 5.4 interval predicate, one max-query;
* forest weight / component count — single converge-casts over machine-
  local aggregates (each MST edge contributes from its smaller-id home
  machine only, so nothing is double counted).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.aggregate import batched_queries, global_max, global_sum
from repro.core.state import MachineStateBase
from repro.errors import ProtocolError
from repro.graphs.graph import normalize
from repro.sim.message import WORDS_EDGE, WORDS_ID
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


def connectivity_query(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    u: int,
    v: int,
) -> bool:
    """Are u and v in the same tree?  O(1) rounds."""
    return batch_connectivity(net, vp, states, [(u, v)])[(normalize(u, v))]


def batch_connectivity(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    pairs: Sequence[Tuple[int, int]],
) -> Dict[Tuple[int, int], bool]:
    """Resolve q connectivity queries in O(q/k + 1) rounds.

    For each pair, the two home machines contribute their vertex's tour
    id; the collation machine compares.  Results are returned to the
    caller (a real deployment would route each answer to the asking
    machine — same cost).
    """
    qpairs = [normalize(u, v) for (u, v) in pairs]
    per_query: Dict[Tuple[int, int], List[Optional[Tuple[int, int]]]] = {}
    for (u, v) in qpairs:
        vals: List[Optional[Tuple[int, int]]] = [None] * net.k
        for x in (u, v):
            home = vp.home(x)
            tid = states[home].tour_id(x)
            if tid is None:
                raise ProtocolError(f"machine {home}: unknown tour for {x}")
            prev = vals[home]
            vals[home] = (prev[0], tid) if prev is not None else (tid, tid) if u == v else (tid, -1)
        per_query[(u, v)] = vals
    # Collate: collect the (≤ 2) contributed tour ids and compare.
    def combine(contribs: List[Tuple[int, int]]) -> bool:
        tids = []
        for c in contribs:
            tids.extend(x for x in c if x != -1)
        return len(set(tids)) == 1

    # Rebuild per-query values in the shape batched_queries expects: one
    # value per machine; a machine hosting both endpoints contributes a
    # complete pair, one hosting a single endpoint contributes (tid, -1).
    answers = batched_queries(net, per_query, combine, words=WORDS_ID * 2)
    return {q: bool(a) for q, a in answers.items()}


def path_max_query(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    u: int,
    v: int,
) -> Optional[Tuple[float, int, int]]:
    """The bottleneck (heaviest) MST edge on the u–v tree path.

    Returns (weight, a, b) or None if u, v are disconnected or equal.
    O(1) rounds: one interval broadcast per endpoint plus one max-query;
    uses the root-path XOR characterization of Lemma 5.4, so no physical
    reroot is needed.
    """
    u, v = normalize(u, v)
    if u == v:
        return None
    hu, hv = vp.home(u), vp.home(v)
    tu, tv = states[hu].tour_id(u), states[hv].tour_id(v)
    if tu != tv or tu is None:
        # Tour ids are exchanged in one superstep.
        net.point_to_point([(hu, hv, ("tid", tu), WORDS_ID)] if hu != hv else [])
        if tu != tv:
            return None
    iu = states[hu].parent_interval(u)
    iv = states[hv].parent_interval(v)
    # Broadcast both parent intervals (roots broadcast a sentinel).
    for home, interval in ((hu, iu), (hv, iv)):
        net.broadcast(home, ("interval", interval), WORDS_ID * 2)

    def on_path(labels: Tuple[int, int]) -> bool:
        def contains(outer, inner_start):
            return outer[0] <= inner_start <= outer[1]
        above_u = iu is not None and contains(labels, iu[0])
        above_v = iv is not None and contains(labels, iv[0])
        return above_u != above_v

    locals_: List[Optional[Tuple]] = []
    for st in states:
        best = None
        for ete in st.edges_in_tour(tu):
            if on_path(ete.labels()):
                cand = (ete.key, ete.u, ete.v)
                if best is None or cand > best:
                    best = cand
        locals_.append(best)
    got = global_max(net, locals_, words=WORDS_EDGE)
    if got is None:
        return None
    (w, a, b), _, _ = got
    return (w, a, b)


def forest_weight_query(
    net: Network, vp: VertexPartition, states: Sequence[MachineStateBase]
) -> float:
    """Total MSF weight: one converge-cast of machine-local sums."""
    sums = []
    for st in states:
        s = 0.0
        for ete in st.iter_mst():
            if vp.home(ete.u) == st.mid:  # count each edge exactly once
                s += ete.weight
        sums.append(s)
    return float(global_sum(net, sums, words=2))


def component_count_query(
    net: Network, vp: VertexPartition, states: Sequence[MachineStateBase]
) -> int:
    """Number of trees: n minus the globally summed MST edge count."""
    counts = []
    n_vertices = 0
    for st in states:
        n_vertices += len(st.vertices)
        counts.append(
            sum(1 for ete in st.iter_mst() if vp.home(ete.u) == st.mid)
        )
    total_edges = global_sum(net, counts, words=1)
    return n_vertices - int(total_edges or 0)


def subtree_size_query(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    x: int,
    root_tour: bool = False,
) -> int:
    """Number of vertices in x's subtree (w.r.t. the current tour root).

    Pure label arithmetic on x's home machine: a subtree spanning s
    vertices occupies exactly 2s consecutive labels (its parent edge's
    closed interval), so s = (p_out - p_in + 1) / 2.  The root's subtree
    is its whole tour: (size / 2) + 1.  One broadcast of the answer.
    """
    home = vp.home(x)
    st = states[home]
    interval = st.parent_interval(x)
    if interval is None:
        tid = st.tour_id(x)
        size = st.tour_size.get(tid, 0)
        s = size // 2 + 1
    else:
        p_in, p_out = interval
        s = (p_out - p_in + 1) // 2
    net.broadcast(home, ("subtree", x, s), WORDS_ID * 2)
    return s


def lca_query(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    u: int,
    v: int,
) -> Optional[int]:
    """Lowest common ancestor of u and v w.r.t. the current tour root.

    Protocol: u's and v's parent intervals are broadcast (O(1)); the LCA
    is the vertex whose parent interval is the *minimal* one containing
    both entering times — each machine scans its own MST edges for the
    tightest containing interval and a min converge-cast picks the
    winner.  Returns None if u, v are in different trees; if the LCA is
    the tour root the root vertex is returned (identified by its
    outgoing value 0).
    """
    from repro.comm.aggregate import global_min

    if u == v:
        return u
    u2, v2 = normalize(u, v)
    hu, hv = vp.home(u2), vp.home(v2)
    tu, tv = states[hu].tour_id(u2), states[hv].tour_id(v2)
    if tu is None or tu != tv:
        return None
    iu = states[hu].parent_interval(u2)
    iv = states[hv].parent_interval(v2)
    if iu is None:
        return u2  # u is the root => it is the LCA
    if iv is None:
        return v2
    net.broadcast(hu, ("interval", u2, iu), WORDS_ID * 2)
    net.broadcast(hv, ("interval", v2, iv), WORDS_ID * 2)
    lo, hi = min(iu[0], iv[0]), max(iu[1], iv[1])

    locals_: List[Optional[Tuple[int, int]]] = []
    for st in states:
        best: Optional[Tuple[int, int]] = None
        for ete in st.edges_in_tour(tu):
            e_in, e_out = ete.labels()
            if e_in <= lo and hi <= e_out:
                width = e_out - e_in
                head = ete.head_at(e_in)  # the vertex this edge parents
                cand = (width, head)
                if best is None or cand < best:
                    best = cand
        locals_.append(best)
    got = global_min(net, locals_, words=WORDS_ID * 2)
    if got is not None:
        return got[1]
    # No containing edge: the LCA is the tour root itself.  Its home can
    # be identified by the outgoing value 0; one more converge-cast.
    roots: List[Optional[int]] = []
    for st in states:
        r = None
        for ete in st.edges_in_tour(tu):
            if ete.e_min == 0:
                r = ete.tail_at(0)
        roots.append(r)
    return global_min(net, roots, words=WORDS_ID)
