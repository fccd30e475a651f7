"""The replicated forest view: zero-round reads of post-batch state.

After every applied cut the reducer captures a :class:`ForestView` — an
immutable snapshot of the minimum spanning forest (edge set, total
weight, connected-component labels) plus a monotone ``version`` and the
logical ``tick`` it became current.  Point queries ("in forest?",
"component of v?", "weight?") answer from this replica, exactly the
ROADMAP item-1 contract: reads never touch the charged distributed query
paths, so they cost zero rounds and cannot perturb the ledger digest the
determinism gate compares.

Successive views diff cheaply (:meth:`ForestView.diff`), which is what
the ``msf_change`` subscription channel broadcasts.  A capture reads the
forest edges and component labels the core already holds
(:meth:`repro.core.api.DynamicMST.forest`): a vertex's tour id names its
tree, so no union-find runs per cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Tuple

Pair = Tuple[int, int]


@dataclass(frozen=True)
class ForestView:
    """One immutable replica of the forest, stamped with version + tick."""

    version: int
    tick: int
    weight: float
    edges: Mapping[Pair, float]
    component: Mapping[int, int]
    n_components: int
    edge_set: FrozenSet[Pair] = field(default=frozenset())

    @classmethod
    def capture(cls, dm, version: int, tick: int) -> "ForestView":
        """Snapshot ``dm``'s forest (host-side reads only; zero rounds).

        Components are labelled by their minimum vertex id (a canonical,
        order-independent label).
        """
        edges, component = dm.forest()
        return cls(
            version=version,
            tick=tick,
            weight=sum(edges.values()),
            edges=edges,
            component=component,
            n_components=len(set(component.values())),
            edge_set=frozenset(edges),
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
        added = sorted(
            (u, v, w) for (u, v), w in newer.edges.items() - self.edges.items()
        )
        removed = sorted(pair for pair, _w in self.edges.items() - newer.edges.items())
        return added, removed

    def stats(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "tick": self.tick,
            "weight": self.weight,
            "forest_edges": len(self.edges),
            "components": self.n_components,
        }
