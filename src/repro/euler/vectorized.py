"""NumPy-vectorized Euler label kernels.

The per-machine transforms of Lemmas 5.5–5.7 are embarrassingly
data-parallel: one pure function applied to every label a machine holds.
The scalar versions in :mod:`repro.euler.labels` are the reference: the
reference engine and the :class:`~repro.euler.tour.EulerForest` oracle
apply them.  The array kernels here are what the columnar engine
(:mod:`repro.perf.columnar`) runs.  Neither side picks its path by tour
size:

* :func:`reroot_labels` (Lemma 5.5) acts on a tour's label columns
  directly;
* :class:`PhaseMap` composes a whole Lemma 5.9 phase — every split
  (Lemma 5.6) or every join (Lemma 5.7) of one script — into one
  relabelling, so a phase touches each stored label once however many
  steps it has.

:func:`split_labels` is the single-step form of Lemma 5.6, which no
engine runs: ``benchmarks/bench_vectorized_labels.py`` times it against
the scalar transform.  Each kernel is checked against the scalar
functions by property tests (the phase map against the oracle's own
labels).  All kernels take and return ``int64`` arrays and never modify
inputs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.euler.labels import JoinSpec, SplitSpec


def reroot_labels(labels: np.ndarray, d: int, size: int) -> np.ndarray:
    """Vectorized Lemma 5.5: (labels - d) mod size."""
    if size <= 0:
        raise ValueError("cannot reroot an edgeless tour")
    return (labels - d) % size


def split_labels(labels: np.ndarray, spec: SplitSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized Lemma 5.6.

    Returns (tours, new_labels): ``tours[i]`` is ``spec.old_tour`` or
    ``spec.inside_tour``.  Labels equal to the removed edge's own labels
    raise (they have no image).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels == spec.e_min) | (labels == spec.e_max)):
        raise ValueError("the removed edge's own labels have no image")
    inside = (labels > spec.e_min) & (labels < spec.e_max)
    after = labels > spec.e_max
    new_labels = np.where(
        inside,
        labels - (spec.e_min + 1),
        np.where(after, labels - spec.removed_steps, labels),
    )
    tours = np.where(inside, spec.inside_tour, spec.old_tour)
    return tours, new_labels


def member_mask(values: np.ndarray, keys) -> np.ndarray:
    """``np.isin(values, keys)`` for integer ids, in one lookup pass when
    the keys span at most 64K ids or a few times ``len(values)``.

    A phase's tours and endpoints are usually such keys, and the lookup
    skips ``np.isin``'s set-up and masking passes; ids far apart (vertex
    ids may be sparse) go to ``np.isin``, as a table would be too large.
    """
    keys = np.fromiter(keys, dtype=np.int64)
    if keys.size == 0:
        return np.zeros(values.shape, dtype=bool)
    lo, hi = int(keys.min()), int(keys.max())
    if hi - lo > 8 * values.shape[0] + (1 << 16):
        return np.isin(values, keys)
    table = np.zeros(hi - lo + 3, dtype=bool)
    table[keys - lo + 1] = True
    # Values outside [lo, hi] clip onto the False entry at either end.
    return table.take(values - (lo - 1), mode="clip")


#: One piece of a phase map: phase-start labels ``lo <= l < hi`` of
#: tour ``src`` sit at ``l + off`` in the tour that holds the piece.
_Piece = Tuple[int, int, int, int]


class _Table(NamedTuple):
    """A compiled :class:`PhaseMap` (see ``PhaseMap._compiled``)."""

    src: np.ndarray
    sizes: np.ndarray
    base: np.ndarray
    tour: np.ndarray
    label: np.ndarray
    holder: np.ndarray


class PhaseMap:
    """One Lemma 5.9 phase's splits or joins, composed into one map.

    Each step of a script is a piecewise shift of one tour's labels, so
    a whole phase is a piecewise map from the labels its tours had at the
    phase start to the labels they have at its end.  Fed the phase's
    :class:`SplitSpec` or :class:`JoinSpec` values in script order, the
    map keeps, per current tour, the pieces of phase-start label ranges
    that tour holds:

    * a split cuts the old tour's pieces at ``e_min`` and ``e_max``,
      drops those two labels (the removed edge's, which have no image)
      and moves the pieces between them to the inside tour;
    * a join shifts tour1's pieces from ``a`` on by ``size2 + 2`` and
      rotates tour2's pieces at ``b`` into the gap, under tour1's id.

    A phase has O(k) steps, so the map has O(k) pieces; :meth:`image`
    reads one label through the map built so far (a step's own
    coordinates), and :meth:`edge_images` relabels any number of edges
    with one gather per label column from a dense ``(tour, label)`` table
    over the touched tours' phase-start labels (at most 2n entries).
    """

    def __init__(self) -> None:
        self._pieces: Dict[int, List[_Piece]] = {}
        # Phase-start size of every tour the phase touched (a source).
        self._sizes: Dict[int, int] = {}
        # tour2 -> tour1 of every join (joins move tours whole).
        self._into: Dict[int, int] = {}
        self._table: Optional[_Table] = None

    def _open(self, tour: int, size: int) -> List[_Piece]:
        pieces = self._pieces.get(tour)
        if pieces is None:
            self._sizes[tour] = size
            pieces = self._pieces[tour] = [(tour, 0, size, 0)] if size else []
        return pieces

    def split(self, spec: SplitSpec) -> None:
        """Compose one split (Lemma 5.6)."""
        self._table = None
        root: List[_Piece] = []
        inside: List[_Piece] = []
        e_min, e_max = spec.e_min, spec.e_max
        for src, lo, hi, off in self._open(spec.old_tour, spec.size):
            for a, b, out, shift in (
                (lo, e_min - off, root, 0),
                (e_min + 1 - off, e_max - off, inside, -(e_min + 1)),
                (e_max + 1 - off, hi, root, -spec.removed_steps),
            ):
                a, b = max(a, lo), min(b, hi)
                if a < b:
                    out.append((src, a, b, off + shift))
        self._pieces[spec.old_tour] = root
        self._pieces[spec.inside_tour] = inside

    def join(self, spec: JoinSpec) -> None:
        """Compose one join (Lemma 5.7)."""
        self._table = None
        merged: List[_Piece] = []
        a = spec.a
        for src, lo, hi, off in self._open(spec.tour1, spec.size1):
            for x, y, shift in ((lo, a - off, 0), (a - off, hi, spec.size2 + 2)):
                x, y = max(x, lo), min(y, hi)
                if x < y:
                    merged.append((src, x, y, off + shift))
        self._open(spec.tour2, spec.size2)
        rot = a + 1 - spec.b
        for src, lo, hi, off in self._pieces.pop(spec.tour2):
            for x, y, shift in ((lo, spec.b - off, spec.size2), (spec.b - off, hi, 0)):
                x, y = max(x, lo), min(y, hi)
                if x < y:
                    merged.append((src, x, y, off + rot + shift))
        self._pieces[spec.tour1] = merged
        self._into[spec.tour2] = spec.tour1

    def image(self, tour: int, label: int) -> Tuple[int, int]:
        """``(tour, label)`` through the steps composed so far; a label
        without an image raises ``ValueError``."""
        if tour not in self._sizes:
            return tour, label
        for cur, pieces in self._pieces.items():
            for src, lo, hi, off in pieces:
                if src == tour and lo <= label < hi:
                    return cur, label + off
        raise ValueError(f"label {label} of tour {tour} has no image")

    def _compiled(self) -> _Table:
        """The dense tables: the touched tour ids (sorted), their sizes, the
        base of each one's labels in the ``(tour, label)`` image table, the
        table, and the tour holding each after the joins."""
        if self._table is None:
            src = sorted(self._sizes)
            sizes = np.array([self._sizes[t] for t in src], dtype=np.int64)
            base = np.zeros(len(src) + 1, dtype=np.int64)
            np.cumsum(sizes, out=base[1:])
            at = dict(zip(src, base[:-1].tolist()))
            img_tour = np.full(int(base[-1]), -1, dtype=np.int64)
            img_label = np.zeros(int(base[-1]), dtype=np.int64)
            for cur, pieces in self._pieces.items():
                for s, a, b, off in pieces:
                    img_tour[at[s] + a : at[s] + b] = cur
                    img_label[at[s] + a : at[s] + b] = np.arange(a + off, b + off)
            holder = []
            for t in src:
                while t in self._into:
                    t = self._into[t]
                holder.append(t)
            self._table = _Table(
                np.array(src, dtype=np.int64), sizes, base, img_tour, img_label,
                np.array(holder, dtype=np.int64),
            )
        return self._table

    def touched(self, tours: np.ndarray) -> np.ndarray:
        """Mask of the entries whose tour the phase touched."""
        return member_mask(tours, self._compiled().src.tolist())

    def tour_images(self, tours: np.ndarray) -> np.ndarray:
        """The tour now holding each touched tour (for joins, which move
        tours whole)."""
        t = self._compiled()
        return t.holder[np.searchsorted(t.src, tours)]

    def edge_images(
        self, tours: np.ndarray, t1: np.ndarray, t2: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges' ``(tour, t_uv, t_vu)`` through the whole phase, in one
        gather per label column.

        Every edge's tour must be :meth:`touched`.  A label outside its
        tour or without an image raises ``ValueError``; an edge whose two
        labels land in different tours raises :class:`ProtocolError`.
        """
        t = self._compiled()
        pos = np.searchsorted(t.src, tours)
        size = t.sizes[pos].view(np.uint64)
        # Viewed unsigned, a negative label compares above every size.
        if bool(((t1.view(np.uint64) >= size) | (t2.view(np.uint64) >= size)).any()):
            raise ValueError("a label lies outside its tour")
        base = t.base[pos]
        i1, i2 = base + t1, base + t2
        new1, new2 = t.tour[i1], t.tour[i2]
        # new1 == new2 everywhere unless some label is lost or straddles.
        if bool((new1 != new2).any()) or bool((new1 < 0).any()):
            if bool(((new1 < 0) | (new2 < 0)).any()):
                raise ValueError("the removed edge's own labels have no image")
            raise ProtocolError("edge straddles a split; labels corrupt")
        return new1, t.label[i1], t.label[i2]
