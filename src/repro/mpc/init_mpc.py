"""MPC initialisation in O(log n) rounds (§8): Borůvka with CV stars.

Each phase:

1. every current component finds its minimum outgoing edge (one batched
   min-query per component, O(1) rounds under the MPC cost rule);
2. the chosen edges, oriented along their min-outgoing direction (mutual
   pairs broken toward the smaller component id), form a forest F over
   components;
3. F is 3-coloured with Cole–Vishkin; the colour exchanges are real
   supersteps between the component leaders' machines, so the O(log* n)
   cost is measured, not assumed;
4. components of the most frequent colour merge through their chosen
   edge — since F-neighbours have different colours, the merged edge set
   is a union of stars — applied S at a time via Lemma 5.9.

The most-frequent colour covers ≥ 1/3 of the mergeable components, so
O(log n) phases finish.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.comm.aggregate import batched_queries
from repro.core.scripts import run_structural_batch
from repro.core.state import MachineState
from repro.graphs.dsu import DisjointSet
from repro.graphs.graph import Edge
from repro.mpc.cole_vishkin import cole_vishkin_3coloring
from repro.perf.config import fast_path_enabled
from repro.sim.message import WORDS_EDGE, WORDS_ID, Message
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


def _charge_cv_exchanges(
    net: Network,
    vp: VertexPartition,
    parent: Dict[int, Optional[int]],
    iterations: int,
) -> None:
    """Charge the colour exchanges: per iteration, every child's leader
    machine receives its parent component's colour (1 word)."""
    msgs = []
    for child, par in parent.items():
        if par is None:
            continue
        src, dst = vp.home(par), vp.home(child)
        if src != dst:
            msgs.append(Message(src, dst, ("cv", par, child), WORDS_ID))
    for _ in range(max(iterations, 1)):
        net.superstep(list(msgs))


def mpc_init(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineState],
    vertices: Sequence[int],
    next_tour_id: int,
    batch_limit: Optional[int] = None,
) -> Tuple[Set[Edge], int]:
    """Star-merge Borůvka; returns (MSF edges, advanced tour counter)."""
    if fast_path_enabled(net):
        from repro.perf.init_columnar import mpc_init_columnar

        return mpc_init_columnar(
            net, vp, states, vertices, next_tour_id, batch_limit
        )
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("mpc_init", "scalar")
    k = net.k
    if batch_limit is None:
        batch_limit = getattr(net, "space", k)
    dsu = DisjointSet(vertices)
    msf: Set[Edge] = set()
    with net.ledger.phase("mpc_init"):
        while True:
            roots = sorted({dsu.find(v) for v in vertices})
            if len(roots) <= 1:
                break
            # Step 1: per-component min outgoing edge.
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

            # Step 2: orient the component forest F.
            chosen: Dict[int, Tuple[int, int, float, int]] = {}
            for r in roots:
                ans = answers.get(r)
                if ans is None:
                    continue
                (w, u, v), eu, ev = ans[0], ans[1], ans[2]
                other = dsu.find(ev) if dsu.find(eu) == r else dsu.find(eu)
                chosen[r] = (eu, ev, w, other)
            if not chosen:
                break
            # Mutual pairs (a ↔ b, a < b) make a the root of their tree;
            # the classic argument rules out longer pointer cycles.
            parent: Dict[int, Optional[int]] = {}
            for r, (_eu, _ev, _w, other) in chosen.items():
                mutual = other in chosen and chosen[other][3] == r
                parent[r] = None if (mutual and r < other) else other

            # Step 3: Cole–Vishkin 3-colouring, charged per iteration.
            colour, iters = cole_vishkin_3coloring(parent)
            # Leader of component r = home machine of vertex r.
            _charge_cv_exchanges(net, vp, parent, iters)

            # Step 4: the most frequent colour merges through its edge.
            counts = Counter(colour[r] for r in chosen if parent[r] is not None)
            best_colour = min(
                (c for c in counts), key=lambda c: (-counts[c], c)
            )
            links: List[Tuple[int, int, float]] = []
            for r in sorted(chosen):
                if colour[r] != best_colour or parent[r] is None:
                    continue
                eu, ev, w, other = chosen[r]
                if dsu.union(r, other):
                    links.append((eu, ev, w))
                    msf.add(Edge.of(eu, ev, w))
            links.sort()
            for base in range(0, len(links), max(batch_limit, 1)):
                chunk = links[base : base + batch_limit]
                next_tour_id = run_structural_batch(
                    net, vp, states, cuts=[], links=chunk, next_tour_id=next_tour_id
                )
    return msf, next_tour_id
