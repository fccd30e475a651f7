"""The replicated forest view: zero-round reads of post-batch state.

After every applied cut the reducer captures a :class:`ForestView` — an
immutable snapshot of the minimum spanning forest (edge set, total
weight, connected-component labels) plus a monotone ``version`` and the
logical ``tick`` it became current.  Point queries ("in forest?",
"component of v?", "weight?") answer from this replica, exactly the
ROADMAP item-1 contract: reads never touch the charged distributed query
paths, so they cost zero rounds and cannot perturb the ledger digest the
determinism gate compares.

A capture reads the forest the core already holds
(:meth:`repro.core.api.DynamicMST.forest`): edge keys and weights sorted
by key, and every vertex's component label — a vertex's tour id names
its tree, so no union-find runs per cut.  The view keeps those arrays
beside its dicts, so :meth:`ForestView.diff`, what the ``msf_change``
subscription channel broadcasts, merges two sorted edge lists instead of
walking two dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.state import Forest

Pair = Tuple[int, int]


def _edge_delta(old: Forest, new: Forest) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of ``old`` and of ``new`` whose (key, weight) the other lacks,
    each in key order.

    A forest holds a key once, so in both lists sorted together by
    (u, v, w) a row the other forest shares sits next to its twin.
    """
    u = np.concatenate((old.u, new.u))
    v = np.concatenate((old.v, new.v))
    w = np.concatenate((old.w, new.w))
    order = np.lexsort((w, v, u))
    u, v, w = u[order], v[order], w[order]
    twin = (u[1:] == u[:-1]) & (v[1:] == v[:-1]) & (w[1:] == w[:-1])
    alone = np.ones(order.shape[0], dtype=bool)
    alone[1:] &= ~twin
    alone[:-1] &= ~twin
    rows = order[alone]
    n_old = old.u.shape[0]
    return rows[rows < n_old], rows[rows >= n_old] - n_old


@dataclass(frozen=True)
class ForestView:
    """One immutable replica of the forest, stamped with version + tick."""

    version: int
    tick: int
    weight: float
    edges: Mapping[Pair, float]
    component: Mapping[int, int]
    n_components: int
    forest: Forest = field(repr=False, compare=False)

    @classmethod
    def capture(cls, dm, version: int, tick: int) -> "ForestView":
        """Snapshot ``dm``'s forest (host-side reads only; zero rounds).

        Components are labelled by their minimum vertex id (a canonical,
        order-independent label).
        """
        f = dm.forest()
        return cls(
            version=version,
            tick=tick,
            weight=f.weight,
            edges=dict(zip(zip(f.u.tolist(), f.v.tolist()), f.w.tolist())),
            component=dict(zip(f.vertex.tolist(), f.label.tolist())),
            # A tree's label is its minimum vertex: one vertex per tree
            # is its own label.
            n_components=int(np.count_nonzero(f.label == f.vertex)),
            forest=f,
        )

    def in_forest(self, u: int, v: int) -> bool:
        pair = (u, v) if u <= v else (v, u)
        return pair in self.edges

    def has_vertex(self, v: int) -> bool:
        return v in self.component

    def component_of(self, v: int) -> int:
        return self.component[v]

    def same_component(self, u: int, v: int) -> bool:
        return self.component[u] == self.component[v]

    def diff(self, newer: "ForestView") -> Tuple[
        List[Tuple[int, int, float]], List[Tuple[int, int]]
    ]:
        """``(added, removed)`` between self and a newer view, sorted.

        A re-weighted forest edge appears in both lists (removed at the
        old weight's pair, added with the new weight).
        """
        old, new = self.forest, newer.forest
        gone, got = _edge_delta(old, new)
        added = list(zip(new.u[got].tolist(), new.v[got].tolist(), new.w[got].tolist()))
        removed = list(zip(old.u[gone].tolist(), old.v[gone].tolist()))
        return added, removed

    def stats(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "tick": self.tick,
            "weight": self.weight,
            "forest_edges": len(self.edges),
            "components": self.n_components,
        }
