"""The Rerouting Lemma (Lemma 4.2, proof in Appendix A.1).

``B`` broadcasts, each originating at some machine and destined for *all*
machines, complete in O(B/k + 1) rounds: first every machine announces how
many broadcasts it owns (fixing a global order), then repeatedly the next
k messages in the global order are relayed — message ``i*k + j`` hops to
machine ``j``, and machine ``j`` broadcasts it.  Both supersteps of an
iteration have per-link load at most the message width, so each iteration
is O(1) rounds.

:func:`naive_broadcasts` is the strategy the lemma replaces (every owner
broadcasts its own messages back-to-back, costing ``max_i C_i`` rounds);
it is kept for the ablation benchmark.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.sim.message import WORDS_ID
from repro.sim.network import Network

#: A broadcast request: (source machine, payload, payload width in words).
BroadcastReq = Tuple[int, Any, int]


def scheduled_broadcasts(
    net: Network, requests: Sequence[BroadcastReq], announce: bool = True
) -> List[Tuple[int, Any]]:
    """Complete all broadcasts; return [(src, payload), ...] in global order.

    The return value is exactly what every machine ends up knowing, in the
    deterministic global order (by machine id, then by the owner's local
    order) fixed by the announcement round.
    """
    reqs = list(requests)
    for src, _payload, words in reqs:
        if words <= 0:
            raise ValueError("payload width must be positive")
        net._check_endpoint(src)
    if not reqs:
        return []
    k = net.k
    if announce and k > 1:
        # Step 1: every machine broadcasts its request count (1 word).
        counts: dict[int, int] = {}
        for src, _p, _w in reqs:
            counts[src] = counts.get(src, 0) + 1
        net.fanout([(src, ("count", c), WORDS_ID) for src, c in counts.items()])
    # Global order: by source machine, then local order.  Each iteration
    # hands g messages to each of the k relay machines, where g is how
    # many broadcasts a relay can emit per round in this model (1 in the
    # k-machine model; S/((k-1)·w) in MPC).
    ordered = sorted(range(len(reqs)), key=lambda i: (reqs[i][0], i))
    max_words = max(w for (_s, _p, w) in reqs)
    g = max(1, net.relay_multiplicity(max_words))
    out: List[Tuple[int, Any]] = []
    for base in range(0, len(ordered), k * g):
        chunk = [reqs[i] for i in ordered[base : base + k * g]]
        # Step 2a: message j of the chunk hops to relay machine j mod k.
        hops: List[Tuple[int, int, Any, int]] = []
        relay: List[Tuple[int, Any, int]] = []
        for j, (src, payload, words) in enumerate(chunk):
            target = j % k
            relay.append((target, payload, words))
            if src != target:
                hops.append((src, target, payload, words))
        net.point_to_point(hops)
        # Step 2b: every relay machine broadcasts its message(s).
        net.fanout(relay)
        out.extend((reqs[i][0], reqs[i][1]) for i in ordered[base : base + k * g])
    return out


def naive_broadcasts(
    net: Network, requests: Sequence[BroadcastReq]
) -> List[Tuple[int, Any]]:
    """The unbalanced strategy: every owner broadcasts its own messages.

    One superstep per *wave*, where wave t carries the t-th message of
    every machine; the busiest machine dictates the number of waves, so
    the measured cost is ``Θ(max_i C_i)`` rounds — the quantity the
    Rerouting Lemma beats.  Kept for `bench_ablation.py`.
    """
    reqs = list(requests)
    if not reqs:
        return []
    per_machine: dict[int, List[BroadcastReq]] = {}
    for req in reqs:
        per_machine.setdefault(req[0], []).append(req)
    waves = max(len(v) for v in per_machine.values())
    for t in range(waves):
        net.fanout([items[t] for items in per_machine.values() if t < len(items)])
    ordered = sorted(range(len(reqs)), key=lambda i: (reqs[i][0], i))
    return [(reqs[i][0], reqs[i][1]) for i in ordered]
