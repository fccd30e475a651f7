"""Bracket-matching component labelling for batch deletions (§6.2, Fig. 4).

When d tree edges of one tour are deleted, their 2d labels — written as an
open bracket at each c_in and a close bracket at each c_out — properly
nest, and the d+1 components of the broken tree correspond one-to-one to
the nesting regions: labels "contained in the same pair of brackets at the
same depth" are in the same component.

Components are numbered in Euler-tour order: the root's (outermost) region
is 0, and interval i (in increasing c_in order) names component i+1.  The
numbering is a pure function of the broadcast label pairs, so every
machine derives the identical labelling locally.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

from repro.errors import ProtocolError
from repro.euler.tour import ETEdge


class BracketComponents:
    """Component labelling of one tour from the deleted edges' label pairs."""

    def __init__(self, deleted_labels: Sequence[Tuple[int, int]], size: int) -> None:
        self.size = size
        self.intervals: List[Tuple[int, int]] = sorted(
            (min(a, b), max(a, b)) for a, b in deleted_labels
        )
        seen: set[int] = set()
        for c_in, c_out in self.intervals:
            if not 0 <= c_in < c_out < size:
                raise ProtocolError(f"labels ({c_in}, {c_out}) outside tour of size {size}")
            if c_in in seen or c_out in seen:
                raise ProtocolError("deleted edges share a label")
            seen.update((c_in, c_out))
        self._deleted_labels = seen
        self._pair_index = {pair: i for i, pair in enumerate(self.intervals)}
        # Parent of each interval in the nesting forest (-1 = outer region).
        self.parent: List[int] = []
        stack: List[int] = []
        for i, (c_in, c_out) in enumerate(self.intervals):
            while stack and self.intervals[stack[-1]][1] < c_in:
                stack.pop()
            if stack and not (
                self.intervals[stack[-1]][0] < c_in and c_out < self.intervals[stack[-1]][1]
            ):
                raise ProtocolError("deleted intervals cross; labels are corrupt")
            self.parent.append(stack[-1] if stack else -1)
            stack.append(i)
        self._starts = [c_in for c_in, _ in self.intervals]

    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        return len(self.intervals) + 1

    def _innermost(self, w: int) -> int:
        """Index of the innermost interval strictly containing ``w``, or -1."""
        i = bisect_right(self._starts, w) - 1
        while i >= 0 and self.intervals[i][1] <= w:
            i = self.parent[i]
        if i >= 0 and self.intervals[i][0] == w:
            i = self.parent[i]
        return i

    def component_of_label(self, w: int) -> int:
        """Component of a surviving label (must not be a deleted label)."""
        if not 0 <= w < self.size:
            raise ProtocolError(f"label {w} outside tour of size {self.size}")
        if w in self._deleted_labels:
            raise ProtocolError(f"label {w} belongs to a deleted edge")
        return self._innermost(w) + 1

    def component_inside(self, interval_idx: int) -> int:
        """Component of the region enclosed by deleted interval ``interval_idx``."""
        return interval_idx + 1

    def component_outside(self, interval_idx: int) -> int:
        """Component of the region directly surrounding ``interval_idx``."""
        return self.parent[interval_idx] + 1

    def interval_index(self, labels: Tuple[int, int]) -> int:
        pair = (min(labels), max(labels))
        lo = bisect_right(self._starts, pair[0]) - 1
        if lo < 0 or self.intervals[lo] != pair:
            raise ProtocolError(f"{pair} is not a deleted interval")
        return lo

    # ------------------------------------------------------------------
    def component_of_vertex(self, witness: ETEdge, x: int) -> int:
        """Component of vertex ``x`` from any incident tour edge ``witness``.

        If the witness survives, both its labels lie in x's component; if
        the witness is itself a deleted edge, the traversal direction at
        c_in decides the side (the vertex it enters is inside), exactly as
        in §6.2 step 2 / Figure 4's boundary-value rule.
        """
        labels = witness.labels()
        idx = self._pair_index.get((min(labels), max(labels)))
        if idx is None:
            return self.component_of_label(labels[0])
        c_in = self.intervals[idx][0]
        if witness.head_at(c_in) == x:
            return self.component_inside(idx)
        return self.component_outside(idx)
