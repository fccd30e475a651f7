"""Converge-casts: global min / max / sum, and batched queries.

A single aggregation is a two-superstep star: every machine sends its
local value to the collation machine (k messages over k distinct links —
one round per word), and the collation machine broadcasts the result.

:func:`batched_queries` implements the §6.1 step-6 pattern: Q independent
aggregation queries are collated at machines ``qid mod k``, so the
per-link load stays O(Q/k) and all Q queries finish in O(Q/k + 1) rounds;
the results are then shared with everyone through the Rerouting Lemma.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.rerouting import scheduled_broadcasts
from repro.sim.message import WORDS_ID
from repro.sim.network import Network

#: per-machine local values: values[mid] is machine mid's contribution
#: (None means "no contribution").
LocalValues = Sequence[Optional[Any]]


def converge_cast(
    net: Network,
    root: int,
    values: LocalValues,
    combine: Callable[[List[Any]], Any],
    words: int = WORDS_ID,
) -> Any:
    """Aggregate per-machine values at ``root``; only the root learns it."""
    if len(values) != net.k:
        raise ValueError("need exactly one (possibly None) value per machine")
    net.point_to_point([
        (mid, root, val, words)
        for mid, val in enumerate(values)
        if val is not None and mid != root
    ])
    contributions = [v for v in values if v is not None]
    return combine(contributions) if contributions else None


def _broadcast_result(net: Network, root: int, result: Any, words: int) -> None:
    net.broadcast(root, result, words)


def global_min(
    net: Network, values: LocalValues, words: int = WORDS_ID, root: int = 0
) -> Any:
    """All machines learn the global minimum of the per-machine values."""
    res = converge_cast(net, root, values, min, words)
    _broadcast_result(net, root, res, words)
    return res


def global_max(
    net: Network, values: LocalValues, words: int = WORDS_ID, root: int = 0
) -> Any:
    """All machines learn the global maximum of the per-machine values."""
    res = converge_cast(net, root, values, max, words)
    _broadcast_result(net, root, res, words)
    return res


def global_sum(
    net: Network, values: LocalValues, words: int = WORDS_ID, root: int = 0
) -> Any:
    """All machines learn the global sum of the per-machine values."""
    res = converge_cast(net, root, values, lambda xs: sum(xs), words)
    _broadcast_result(net, root, res, words)
    return res


def batched_queries(
    net: Network,
    per_query_values: Dict[Any, LocalValues],
    combine: Callable[[List[Any]], Any],
    words: int = WORDS_ID,
) -> Dict[Any, Any]:
    """Resolve Q independent aggregation queries in O(Q/k + 1) rounds.

    ``per_query_values[qid][mid]`` is machine ``mid``'s contribution to
    query ``qid`` (None if it has none).  Query ``qid`` is collated at
    machine ``index(qid) mod k`` where queries are taken in sorted order,
    matching the deterministic assignment of §6.1 step 6.  Every machine
    learns every result (shared via the Rerouting Lemma).
    """
    if not per_query_values:
        return {}
    k = net.k
    qids = sorted(per_query_values, key=repr)
    collator = {qid: idx % k for idx, qid in enumerate(qids)}
    # Superstep: each machine sends each non-None contribution to the
    # collation machine of that query.
    net.point_to_point([
        (mid, collator[qid], (qid, val), words)
        for qid in qids
        for mid, val in enumerate(per_query_values[qid])
        if val is not None and mid != collator[qid]
    ])
    results: Dict[Any, Any] = {}
    bcast_reqs: List[Tuple[int, Any, int]] = []
    for qid in qids:
        contributions = [v for v in per_query_values[qid] if v is not None]
        res = combine(contributions) if contributions else None
        results[qid] = res
        bcast_reqs.append((collator[qid], (qid, res), words))
    # Share all Q results with everyone: Q broadcasts => O(Q/k + 1) rounds.
    scheduled_broadcasts(net, bcast_reqs)
    return results
