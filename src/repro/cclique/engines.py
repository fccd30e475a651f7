"""Exact MST engines for contracted CONGESTED-CLIQUE instances.

Input convention (matching the state after §6.2 step 7): ``n_vertices``
super-vertices, ``local_edges[m]`` the :class:`CCEdge` list held by
machine m.  Every engine returns the unique super-MSF (by the global edge
key order) and finishes with all machines knowing it — the final result
broadcast is part of the measured cost.

Engines:

* :func:`boruvka_engine` — deterministic; each phase batches one
  min-query per component (O(c/k + 1) rounds) and merges locally from the
  broadcast answers; O(log n') phases.
* :func:`lotker_engine` — merge-and-filter paradigm (Lotker et al. 2003 /
  Lattanzi et al. filtering): machines pair up each level, ship their
  locally-filtered MSF to the partner via Lenzen routing (O(1) rounds per
  level because a local MSF has < n' ≤ k+1 edges), halving the number of
  active machines; O(log k) levels with tiny constants.
* :func:`sample_gather_engine` — the JN-flavoured randomized engine
  (DESIGN.md substitution): if the instance is *sparse* (m' ≤ gather
  threshold) gather everything at a leader in O(1) rounds via Lenzen
  routing and solve locally — Jurdziński–Nowicki's own base case.  Dense
  instances are first sparsified by group-pair partitioning (each machine
  owns one group pair, computes the local MSF of the edges routed to it),
  which is O(1) rounds per iteration; if sparsification stalls the engine
  falls back to Borůvka phases.  On every instance the §6.2 reduction
  produces, the measured cost is a small constant number of rounds.

Each engine is written once, for both execution engines: only the
machine-local scans (:func:`_cc_local_msf`, :func:`_cc_min_outgoing`)
run as array passes (:mod:`repro.perf.cclique_columnar`) on a fast-path
network above the vectorize/loop crossover.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.aggregate import batched_queries, global_sum
from repro.comm.lenzen import lenzen_route
from repro.comm.rerouting import scheduled_broadcasts
from repro.cclique.ccedge import CCEdge
from repro.graphs.dsu import ArrayDSU, DisjointSet
from repro.graphs.generators import RngLike, as_rng
from repro.perf import config as _perf_config
from repro.perf.config import fast_path_enabled
from repro.sim.message import WORDS_COMPONENT_EDGE, Message
from repro.sim.network import Network


def _cc_local_msf(edges: Sequence[CCEdge], net: Network) -> List[CCEdge]:
    """Machine-local cycle deletion over super-vertices (no communication).

    Pure local computation (no wire), so the columnar kernel
    (:func:`repro.perf.cclique_columnar.cc_local_msf_columnar`) is used
    above the vectorize/loop crossover when ``net`` runs the fast path;
    it returns the identical edge list in the identical order.
    """
    if fast_path_enabled(net) and len(edges) >= _perf_config.VECTOR_MIN_ROWS:
        from repro.perf.cclique_columnar import cc_local_msf_columnar

        return cc_local_msf_columnar(edges, net)
    dsu = DisjointSet()
    out: List[CCEdge] = []
    for e in sorted(edges):
        if dsu.union(e.cu, e.cv):
            out.append(e)
    return out


def _broadcast_result(net: Network, holder: int, msf: List[CCEdge]) -> List[CCEdge]:
    """Holder shares the final MSF with everyone (counted, O(|msf|/k + 1))."""
    msf = sorted(msf)
    scheduled_broadcasts(
        net, [(holder, ("msf_edge", e), WORDS_COMPONENT_EDGE) for e in msf]
    )
    return msf


# ----------------------------------------------------------------------
# Borůvka
# ----------------------------------------------------------------------
def _cc_min_outgoing(
    net: Network,
    local_edges: Sequence[Sequence[CCEdge]],
    roots: np.ndarray,
) -> Dict[int, List[Optional[CCEdge]]]:
    """One Borůvka phase's query table: per component, keyed by its
    representative in ascending order, machine m's minimum outgoing
    :class:`CCEdge` in slot m (``None`` where m holds none).

    ``roots[c]`` is super-vertex c's representative (one
    :meth:`~repro.graphs.dsu.ArrayDSU.root_indices` pass; super-vertex
    ids are dense, so a root index is a representative).  Pure local
    computation, so above the vectorize/loop crossover a fast-path
    network runs it as array passes
    (:func:`repro.perf.cclique_columnar.cc_min_outgoing_columnar`),
    with the same edge objects in the same slots.
    """
    if fast_path_enabled(net) and (
        sum(len(edges) for edges in local_edges) >= _perf_config.VECTOR_MIN_ROWS
    ):
        from repro.perf.cclique_columnar import cc_min_outgoing_columnar

        return cc_min_outgoing_columnar(net, local_edges, roots)
    root = roots.tolist()
    per_query: Dict[int, List[Optional[CCEdge]]] = {
        c: [None] * net.k for c in sorted(set(root))
    }
    for m, edges in enumerate(local_edges):
        # Machine-local minimum outgoing edge per component.
        best: Dict[int, CCEdge] = {}
        for e in edges:
            ru, rv = root[e.cu], root[e.cv]
            if ru == rv:
                continue
            for r in (ru, rv):
                cur = best.get(r)
                if cur is None or e < cur:
                    best[r] = e
        for r, e in best.items():
            per_query[r][m] = e
    return per_query


def boruvka_engine(
    net: Network,
    n_vertices: int,
    local_edges: Sequence[Sequence[CCEdge]],
    rng: RngLike = None,
) -> List[CCEdge]:
    """Deterministic Borůvka with batched per-component min-queries.

    One body for both engines: only each machine's candidate scan
    (:func:`_cc_min_outgoing`) depends on the engine.
    """
    k = net.k
    if len(local_edges) != k:
        raise ValueError("need one edge list per machine")
    recorder = net.ledger.recorder
    if recorder is not None:
        # The engine _cc_min_outgoing picks: the row count is fixed.
        columnar = fast_path_enabled(net) and (
            sum(len(edges) for edges in local_edges) >= _perf_config.VECTOR_MIN_ROWS
        )
        recorder.on_engine("cc_boruvka", "columnar" if columnar else "scalar")
    # The component map is replicated: every machine sees the same
    # broadcast answers, so it evolves identically everywhere.
    dsu = ArrayDSU(np.arange(n_vertices, dtype=np.int64))
    msf: List[CCEdge] = []
    with net.ledger.phase("cc.boruvka"):
        while dsu.n_components > 1:
            per_query = _cc_min_outgoing(net, local_edges, dsu.root_indices())
            answers = batched_queries(
                net, per_query, min, words=WORDS_COMPONENT_EDGE
            )
            merged_any = False
            for c in sorted(answers):
                e = answers[c]
                if e is not None and dsu.union(e.cu, e.cv):
                    msf.append(e)
                    merged_any = True
            if not merged_any:
                break
    # Everyone already knows the MSF (answers were broadcast), so no final
    # result broadcast is needed.
    return sorted(msf)


# ----------------------------------------------------------------------
# Merge-and-filter
# ----------------------------------------------------------------------
def lotker_engine(
    net: Network,
    n_vertices: int,
    local_edges: Sequence[Sequence[CCEdge]],
    rng: RngLike = None,
) -> List[CCEdge]:
    """Binary merge-and-filter: survivors halve each level.

    At level L the active machines are multiples of 2^L; machine
    m + 2^L ships its locally-filtered MSF (< n' edges, Lenzen-routable
    in O(1) rounds) to machine m, which re-filters the union.  After
    ceil(log2 k) levels machine 0 holds the global MSF and broadcasts it.
    """
    k = net.k
    if len(local_edges) != k:
        raise ValueError("need one edge list per machine")
    current: List[List[CCEdge]] = [_cc_local_msf(edges, net) for edges in local_edges]
    stride = 1
    with net.ledger.phase("cc.lotker"):
        while stride < k:
            msgs: List[Message] = []
            for m in range(0, k, 2 * stride):
                partner = m + stride
                if partner < k and current[partner]:
                    msgs.extend(
                        Message(partner, m, ("cc_edge", e), WORDS_COMPONENT_EDGE)
                        for e in current[partner]
                    )
            inboxes = lenzen_route(net, msgs)
            for m in range(0, k, 2 * stride):
                partner = m + stride
                if partner < k:
                    received = [p[1] for _src, p in inboxes.get(m, [])]
                    current[m] = _cc_local_msf(current[m] + received, net)
                    current[partner] = []
            stride *= 2
    return _broadcast_result(net, 0, current[0])


# ----------------------------------------------------------------------
# Sample-gather (JN-flavoured)
# ----------------------------------------------------------------------
def sample_gather_engine(
    net: Network,
    n_vertices: int,
    local_edges: Sequence[Sequence[CCEdge]],
    rng: RngLike = None,
    gather_factor: int = 2,
    max_sparsify: int = 2,
) -> List[CCEdge]:
    """Gather-and-solve with group-pair sparsification for dense inputs."""
    k = net.k
    if len(local_edges) != k:
        raise ValueError("need one edge list per machine")
    rng = as_rng(rng)
    current: List[List[CCEdge]] = [_cc_local_msf(edges, net) for edges in local_edges]
    threshold = max(gather_factor * k, n_vertices)

    for attempt in range(max_sparsify + 1):
        m_total = global_sum(net, [len(c) for c in current])
        if m_total is None or m_total <= threshold:
            break
        if attempt == max_sparsify:
            # Sparsification stalled; fall back to Borůvka on what's left.
            return boruvka_engine(net, n_vertices, current, rng)
        # Group-pair sparsification: G groups of super-vertices so that the
        # number of unordered group pairs is at most k; each pair is owned
        # by one machine which locally MSF-filters the edges it receives.
        G = max(2, int(np.floor((np.sqrt(8 * k + 1) - 1) / 2)))
        group_of = lambda v: v % G  # noqa: E731 - shared deterministic rule
        def pair_machine(gi: int, gj: int) -> int:
            a, b = (gi, gj) if gi <= gj else (gj, gi)
            idx = a * G - (a * (a - 1)) // 2 + (b - a)
            return idx % k
        msgs: List[Message] = []
        new_local: List[List[CCEdge]] = [[] for _ in range(k)]
        for m in range(k):
            for e in current[m]:
                owner = pair_machine(group_of(e.cu), group_of(e.cv))
                if owner == m:
                    new_local[m].append(e)
                else:
                    msgs.append(Message(m, owner, ("cc_edge", e), WORDS_COMPONENT_EDGE))
        inboxes = lenzen_route(net, msgs)
        for m in range(k):
            received = [p[1] for _src, p in inboxes.get(m, [])]
            new_local[m] = _cc_local_msf(new_local[m] + received, net)
        current = new_local

    # Sparse case (JN base case): gather everything at a random leader and
    # solve locally; the leader receives ≤ threshold = O(k) edges, which
    # Lenzen routing delivers in O(1) rounds.
    leader = int(rng.integers(0, k))
    msgs = [
        Message(m, leader, ("cc_edge", e), WORDS_COMPONENT_EDGE)
        for m in range(k)
        if m != leader
        for e in current[m]
    ]
    inboxes = lenzen_route(net, msgs)
    received = [p[1] for _src, p in inboxes.get(leader, [])]
    msf = _cc_local_msf(current[leader] + received, net)
    return _broadcast_result(net, leader, msf)


ENGINES: Dict[str, Callable] = {
    "boruvka": boruvka_engine,
    "lotker": lotker_engine,
    "sample_gather": sample_gather_engine,
}


def cc_msf(
    net: Network,
    n_vertices: int,
    local_edges: Sequence[Sequence[CCEdge]],
    engine: str = "sample_gather",
    rng: RngLike = None,
) -> List[CCEdge]:
    """Dispatch to a named engine; see module docstring for the menu."""
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}; choose from {sorted(ENGINES)}") from None
    return fn(net, n_vertices, local_edges, rng=rng)
