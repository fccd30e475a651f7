"""Lenzen routing and sorting (Theorem 4.1).

Lenzen's deterministic algorithms solve, in O(1) rounds of a fully
connected k-node system:

* **Routing** — each node is source/destination of up to k messages;
* **Sorting** — each node holds up to k keys; node i must learn the keys
  with global ranks (i-1)k+1 .. ik.

We implement both as explicit supersteps whose cost the ledger measures.
Routing uses the classic two-phase balancing (source spreads its messages
over deterministic intermediates, intermediates forward).  Sorting uses
splitter sampling + range routing + exact rank rebalancing; on every
workload the reduction of §6.2 produces (≤ k items per machine), the
measured cost is a small constant number of rounds, matching the theorem.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perf.config import fast_path_enabled
from repro.sim.message import WORDS_ID, Message
from repro.sim.network import Network
from repro.sim.plane import MessagePlane


def _bipartite_edge_coloring(pairs: List[Tuple[int, int]]) -> List[int]:
    """Colour a bipartite multigraph's edges with Δ colours (König).

    ``pairs`` are (source, destination) edges; returns one colour per
    edge such that no two edges sharing a source or a destination get the
    same colour.  Classic alternating-path construction: this is the
    combinatorial heart of Lenzen's deterministic O(1) routing — edges of
    one colour form a (partial) matching, i.e. a conflict-free superstep.
    """
    used_s: Dict[int, Dict[int, int]] = {}  # source -> colour -> edge idx
    used_d: Dict[int, Dict[int, int]] = {}
    colour_of: List[int] = [-1] * len(pairs)

    def first_free(used: Dict[int, int]) -> int:
        c = 0
        while c in used:
            c += 1
        return c

    for idx, (s, d) in enumerate(pairs):
        us = used_s.setdefault(s, {})
        ud = used_d.setdefault(d, {})
        a = first_free(us)
        b = first_free(ud)
        if a != b and a in ud:
            # Free colour a at d by flipping the a/b alternating path
            # starting with d's a-edge.  In a bipartite graph this path
            # cannot reach s, so a stays free at s (König's argument).
            path: List[int] = []
            node, at_src, want = d, False, a
            while True:
                side = used_s if at_src else used_d
                eidx = side.get(node, {}).get(want)
                if eidx is None:
                    break
                path.append(eidx)
                es, ed = pairs[eidx]
                node = ed if at_src else es
                at_src = not at_src
                want = b if want == a else a
            for eidx in path:
                old = colour_of[eidx]
                es, ed = pairs[eidx]
                del used_s[es][old]
                del used_d[ed][old]
                colour_of[eidx] = b if old == a else a
            for eidx in path:
                es, ed = pairs[eidx]
                used_s[es][colour_of[eidx]] = eidx
                used_d[ed][colour_of[eidx]] = eidx
        colour_of[idx] = a
        us[a] = idx
        ud[a] = idx
    return colour_of


def lenzen_route(
    net: Network, messages: Sequence[Message]
) -> Dict[int, List[Tuple[int, Any]]]:
    """Route point-to-point messages via balanced intermediates.

    Messages are assigned intermediates from a bipartite edge colouring
    of the (source, destination) demand multigraph: colour c routes via
    machine c mod k, so with per-machine send/receive load ≤ k messages
    both phases have O(1) per-link load — the Theorem 4.1 guarantee,
    realized deterministically.  Inboxes carry the *original* source.
    """
    k = net.k
    msgs = list(messages)
    if not msgs:
        return {}
    if k == 1:
        return {0: [(0, m.payload) for m in msgs]}
    msgs.sort(key=lambda m: (m.src, m.dst, repr(m.payload)))
    colours = _bipartite_edge_coloring([(m.src, m.dst) for m in msgs])

    fast = fast_path_enabled(net)
    phase1: List[Tuple[int, int, Any, int]] = []
    at_intermediate: List[Tuple[int, Message]] = []  # (intermediate, original)
    for m, c in zip(msgs, colours):
        inter = c % k
        at_intermediate.append((inter, m))
        if inter != m.src:
            # Envelope carries (dst, payload); same width + 1 id word.
            phase1.append((m.src, inter, ("fwd", m.dst, m.payload), m.words + 1))
    if fast:
        net.superstep_plane(MessagePlane.point_to_point(phase1))
    else:
        net.superstep(Message(s, d, p, w) for (s, d, p, w) in phase1)

    phase2: List[Tuple[int, int, Any, int]] = []
    inboxes: Dict[int, List[Tuple[int, Any]]] = {}
    for inter, m in at_intermediate:
        if inter != m.dst:
            phase2.append((inter, m.dst, ("src", m.src, m.payload), m.words + 1))
        inboxes.setdefault(m.dst, []).append((m.src, m.payload))
    if fast:
        net.superstep_plane(MessagePlane.point_to_point(phase2))
    else:
        net.superstep(Message(s, d, p, w) for (s, d, p, w) in phase2)
    for dst in inboxes:
        inboxes[dst].sort(key=lambda sp: (sp[0], repr(sp[1])))
    return inboxes


def _splitters(all_samples: List[Any], k: int) -> List[Any]:
    """k-1 splitters at even quantiles of the shared sample set."""
    if not all_samples or k <= 1:
        return []
    s = sorted(all_samples)
    return [s[min(len(s) - 1, (i * len(s)) // k)] for i in range(1, k)]


def _range_of(key: Any, splitters: List[Any]) -> int:
    """Index of the splitter range containing ``key`` (binary search)."""
    lo, hi = 0, len(splitters)
    while lo < hi:
        mid = (lo + hi) // 2
        if key <= splitters[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def lenzen_sort(
    net: Network,
    items_per_machine: Sequence[Sequence[Any]],
    words: int = WORDS_ID,
    samples_per_machine: int = 4,
) -> List[List[Any]]:
    """Globally sort; machine i ends with the items of ranks [i*q, (i+1)*q).

    Keys may repeat: ties are broken by (source machine, local index), so
    the final distribution is deterministic.  Returns the new per-machine
    item lists (undecorated, sorted).
    """
    k = net.k
    if len(items_per_machine) != k:
        raise ValueError("need one item list per machine")
    total = sum(len(it) for it in items_per_machine)
    if total == 0:
        return [[] for _ in range(k)]
    if k == 1:
        return [sorted(items_per_machine[0])]

    # Decorate for a strict total order.
    local: List[List[Tuple[Any, int, int]]] = [
        sorted((key, mid, j) for j, key in enumerate(items))
        for mid, items in enumerate(items_per_machine)
    ]

    # Step 1 (regular sampling à la PSRS, spread over the clique): every
    # machine picks k evenly spaced local samples and sends its j-th one
    # to machine j — a transpose, one message per ordered pair, O(words)
    # rounds.  Machine j's splitter is the median of what it received
    # (k² effective samples for O(1) cost), then all k splitters are
    # shared in one broadcast superstep.
    received: List[List[Tuple[Any, int, int]]] = [[] for _ in range(k)]
    transpose: List[Message] = []
    for mid in range(k):
        items = local[mid]
        for j in range(k):
            if not items:
                continue
            sample = items[min(len(items) - 1, (j * len(items)) // k)]
            if j == mid:
                received[j].append(sample)
            else:
                transpose.append(Message(mid, j, ("sample", sample), words))
    net.superstep(transpose)
    for m in transpose:
        received[m.dst].append(m.payload[1])
    splitter_of: List[Optional[Tuple[Any, int, int]]] = []
    for j in range(k):
        if received[j]:
            got = sorted(received[j])
            splitter_of.append(got[len(got) // 2])
        else:
            splitter_of.append(None)
    net.superstep(
        Message(j, dst, ("splitter", splitter_of[j]), words)
        for j in range(k)
        for dst in range(k)
        if dst != j and splitter_of[j] is not None
    )
    splitters = sorted(s for s in splitter_of if s is not None)[: k - 1]

    # Step 2: route every item to the machine owning its sample range
    # (via Lenzen routing so skewed ranges cannot congest single links).
    route_msgs: List[Message] = []
    range_items: List[List[Tuple[Any, int, int]]] = [[] for _ in range(k)]
    for mid in range(k):
        for item in local[mid]:
            owner = _range_of(item, splitters)
            if owner == mid:
                range_items[mid].append(item)
            else:
                route_msgs.append(Message(mid, owner, ("item", item), words))
    inbox = lenzen_route(net, route_msgs)
    for dst, received in inbox.items():
        for _src, (_tag, item) in received:
            range_items[dst].append(item)
    for mid in range(k):
        range_items[mid].sort()

    # Step 3: owners broadcast their received counts; everyone derives the
    # exact global offset of each range.
    counts = [len(range_items[mid]) for mid in range(k)]
    net.superstep(
        Message(mid, dst, ("count", counts[mid]), WORDS_ID)
        for mid in range(k)
        for dst in range(k)
        if dst != mid
    )
    offsets = [0] * k
    for mid in range(1, k):
        offsets[mid] = offsets[mid - 1] + counts[mid - 1]
    quota = -(-total // k)

    # Step 4: route each item to its final machine (global rank // quota),
    # again via Lenzen routing — a contiguous run moving wholesale to one
    # destination must not serialize on a single link.
    final_msgs: List[Message] = []
    result: List[List[Tuple[Any, int, int]]] = [[] for _ in range(k)]
    for mid in range(k):
        for pos, item in enumerate(range_items[mid]):
            rank = offsets[mid] + pos
            dest = min(rank // quota, k - 1)
            if dest == mid:
                result[mid].append(item)
            else:
                final_msgs.append(Message(mid, dest, ("item", item), words))
    inbox = lenzen_route(net, final_msgs)
    for dst, received in inbox.items():
        for _src, (_tag, item) in received:
            result[dst].append(item)
    return [[key for (key, _m, _j) in sorted(items)] for items in result]
