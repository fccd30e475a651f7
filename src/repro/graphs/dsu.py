"""Disjoint-set union (union-find) with path compression and union by size.

:class:`DisjointSet` is used by the reference MST engines, by
machine-local cycle deletion in the batch-deletion reduction (§6.2
step 3), and by the validators.  :class:`ArrayDSU` is the replicated
component map of the three Borůvka protocols (Theorem 5.8's init,
Theorem 8.1's init and the contracted-clique Borůvka engine) on both
engines: its representatives key the batched min-queries, so it is part
of the wire.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set

import numpy as np


class DisjointSet:
    """Union-find over arbitrary hashable elements.

    Elements are created lazily on first use; :meth:`find` on an unseen
    element makes it a singleton.
    """

    __slots__ = ("_parent", "_size", "_n_components")

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._n_components = 0
        for x in elements:
            self.add(x)

    def add(self, x: Hashable) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            self._n_components += 1

    def find(self, x: Hashable) -> Hashable:
        self.add(x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the sets of ``x`` and ``y``; return True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]
        self._n_components -= 1
        return True

    def connected(self, x: Hashable, y: Hashable) -> bool:
        return self.find(x) == self.find(y)

    def component_size(self, x: Hashable) -> int:
        return self._size[self.find(x)]

    @property
    def n_components(self) -> int:
        return self._n_components

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def components(self) -> List[Set[Hashable]]:
        """Materialize the components as a list of sets (test/debug helper)."""
        groups: Dict[Hashable, Set[Hashable]] = {}
        for x in self._parent:
            groups.setdefault(self.find(x), set()).add(x)
        return list(groups.values())

    def roots(self) -> Iterator[Hashable]:
        for x in self._parent:
            if self._parent[x] == x:
                yield x


class ArrayDSU:
    """Array-backed union-find replicating :class:`DisjointSet`'s choices.

    The Borůvka protocols put component *representatives* on the wire
    (they key the batched min-queries), so matching :class:`DisjointSet`
    is a wire requirement, not a convenience.  This class uses the same
    union-by-size rule with the same tie-break (the first argument's
    root wins on equal sizes), so every ``find`` returns the element
    :class:`DisjointSet` would return after the same unions — path
    compression only shortens pointer chains, never changes roots.

    ``ids`` must be sorted and duplicate-free; elements are addressed by
    their position in it.  Scalar ``union``/``find`` use path-halving
    loops (O(#unions) per phase); :meth:`root_indices` resolves *every*
    element at once by vectorized pointer jumping (O(log depth) array
    passes — depth is logarithmic under union by size), which is what a
    Borůvka phase's candidate scan reads.
    """

    __slots__ = ("ids", "parent", "size", "n_components")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = self.ids.shape[0]
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def index_of(self, x: int) -> int:
        return int(np.searchsorted(self.ids, x))

    def _find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = int(parent[i])
        return i

    def find(self, x: int) -> int:
        """Representative *element* of x's component (same as DisjointSet)."""
        return int(self.ids[self._find(self.index_of(x))])

    def union(self, x: int, y: int) -> bool:
        """Merge by size, first argument's root winning ties; True if merged."""
        rx, ry = self._find(self.index_of(x)), self._find(self.index_of(y))
        if rx == ry:
            return False
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        self.n_components -= 1
        return True

    def root_indices(self) -> np.ndarray:
        """Root *index* of every element, via vectorized pointer jumping."""
        p = self.parent.copy()
        while True:
            gp = p[p]
            if np.array_equal(gp, p):
                return p
            p = gp
