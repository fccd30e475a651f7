"""MPC broadcast and converge-cast trees (§8).

In the MPC model with space S = n^alpha per machine, a machine can send S
words per round, so a broadcast can fan out over a tree with branching
factor ``S / words``; the tree covers k machines in O(log_{S} k) = O(1/alpha)
rounds.  Converge-casts run the same tree in reverse, combining values at
every internal node.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.sim.network import Network, Send


def _levels(k: int, root: int, branching: int) -> List[List[int]]:
    """BFS levels of the implicit tree over machine ids rooted at ``root``.

    Machines are relabelled so the root is 0; machine x's children are
    x * branching + 1 .. x * branching + branching in the relabelled
    space.  Returns levels of *original* machine ids.
    """
    if branching < 1:
        raise ValueError("branching must be >= 1")
    relabel = lambda x: (x + root) % k  # noqa: E731 - tiny local helper
    levels: List[List[int]] = [[relabel(0)]]
    lo, hi = 0, 1  # virtual-id range of current level
    while hi < k:
        nlo = lo * branching + 1
        nhi = min(hi * branching + 1, k)
        levels.append([relabel(x) for x in range(nlo, nhi)])
        lo, hi = nlo, nhi
    return levels


def _parent_virtual(x: int, branching: int) -> int:
    return (x - 1) // branching


def tree_broadcast(
    net: Network,
    root: int,
    payload: Any,
    words: int,
    branching: int,
) -> int:
    """Broadcast ``payload`` from ``root`` to all machines; return #supersteps."""
    k = net.k
    if k == 1:
        return 0
    levels = _levels(k, root, branching)
    supersteps = 0
    for depth in range(1, len(levels)):
        # Recompute the virtual-id range of this level to find parents.
        lo, hi = 0, 1
        for _ in range(depth):
            lo, hi = lo * branching + 1, min(hi * branching + 1, k)
        msgs: List[Send] = []
        for i, mid in enumerate(levels[depth]):
            virt = lo + i
            pvirt = _parent_virtual(virt, branching)
            parent = (pvirt + root) % k
            if parent != mid:
                msgs.append((parent, mid, payload, words))
        net.point_to_point(msgs)
        supersteps += 1
    return supersteps


def tree_converge_cast(
    net: Network,
    root: int,
    values: Sequence[Optional[Any]],
    combine: Callable[[List[Any]], Any],
    words: int,
    branching: int,
) -> Any:
    """Combine per-machine values at ``root`` over the same implicit tree."""
    k = net.k
    if len(values) != k:
        raise ValueError("need one (possibly None) value per machine")
    if k == 1:
        vals = [v for v in values if v is not None]
        return combine(vals) if vals else None
    levels = _levels(k, root, branching)
    # Partial aggregates held at each machine, initially its own value.
    partial: List[List[Any]] = [[v] if v is not None else [] for v in values]
    for depth in range(len(levels) - 1, 0, -1):
        lo, hi = 0, 1
        for _ in range(depth):
            lo, hi = lo * branching + 1, min(hi * branching + 1, k)
        msgs: List[Send] = []
        for i, mid in enumerate(levels[depth]):
            virt = lo + i
            parent = (_parent_virtual(virt, branching) + root) % k
            if partial[mid]:
                agg = combine(partial[mid])
                if parent != mid:
                    msgs.append((mid, parent, agg, words))
                    partial[parent].append(agg)
                else:
                    partial[parent].append(agg)
                partial[mid] = []
        net.point_to_point(msgs)
    vals = partial[root]
    return combine(vals) if vals else None
