"""NumPy-vectorized Euler label kernels.

The per-machine transforms of Lemmas 5.5–5.7 are embarrassingly
data-parallel: one pure function applied to every label a machine holds.
The scalar versions in :mod:`repro.euler.labels` stay the reference (and
are what the protocol code uses at the default scales); these array
kernels are the scale-up path for machines holding 10⁵+ labels, verified
element-for-element against the scalar functions by property tests and
timed by ``benchmarks/bench_vectorized_labels.py``.

All kernels take/return ``int64`` arrays and never modify inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

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


def join_m1_labels(labels: np.ndarray, spec: JoinSpec) -> np.ndarray:
    """Vectorized Lemma 5.7, M1 side."""
    labels = np.asarray(labels, dtype=np.int64)
    return np.where(labels < spec.a, labels, labels + spec.size2 + 2)


def join_m2_labels(labels: np.ndarray, spec: JoinSpec) -> np.ndarray:
    """Vectorized Lemma 5.7, M2 side."""
    if spec.size2 <= 0:
        raise ValueError("singleton M2 has no labels")
    labels = np.asarray(labels, dtype=np.int64)
    return spec.a + 1 + ((labels - spec.b) % spec.size2)


def innermost_intervals(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Vectorized ``BracketComponents._innermost`` over a label array.

    ``starts``/``ends``/``parents`` describe the sorted, properly nesting
    deleted intervals of one tour (§6.2, Figure 4); the result holds, per
    label, the index of the innermost interval strictly containing it, or
    ``-1`` for the outer region.  Labels must be valid survivors (inside
    the tour, not deleted) — the callers validate before dispatching here.
    """
    idx = np.searchsorted(starts, labels, side="right") - 1
    # Walk parents while the candidate interval closes at or before the
    # label.  Nesting depth bounds the iteration count (≤ #intervals).
    for _ in range(len(starts)):
        active = idx >= 0
        if not bool(active.any()):
            break
        step = np.zeros_like(active)
        step[active] = ends[idx[active]] <= labels[active]
        if not bool(step.any()):
            break
        idx[step] = parents[idx[step]]
    # A label equal to an interval's start belongs to the region outside it.
    at_start = idx >= 0
    at_start[at_start] = starts[idx[at_start]] == labels[at_start]
    idx[at_start] = parents[idx[at_start]]
    return idx


def apply_split_inplace(
    t_uv: np.ndarray, t_vu: np.ndarray, tours: np.ndarray, spec: SplitSpec
) -> None:
    """Apply a split to a machine's packed edge arrays (tour-filtered).

    ``t_uv``/``t_vu``/``tours`` are parallel arrays over the machine's
    MST edges; only rows with ``tours == spec.old_tour`` change.  Both
    labels of an edge always land on the same side, so the row's tour is
    derived from ``t_uv`` alone.
    """
    mask = tours == spec.old_tour
    if not np.any(mask):
        return
    new_t1_tours, new_t1 = split_labels(t_uv[mask], spec)
    _, new_t2 = split_labels(t_vu[mask], spec)
    t_uv[mask] = new_t1
    t_vu[mask] = new_t2
    tours[mask] = new_t1_tours


def apply_join_inplace(
    t_uv: np.ndarray, t_vu: np.ndarray, tours: np.ndarray, spec: JoinSpec
) -> None:
    """Apply a join to a machine's packed edge arrays (tour-filtered)."""
    m1 = tours == spec.tour1
    if np.any(m1):
        t_uv[m1] = join_m1_labels(t_uv[m1], spec)
        t_vu[m1] = join_m1_labels(t_vu[m1], spec)
    m2 = tours == spec.tour2
    if np.any(m2):
        t_uv[m2] = join_m2_labels(t_uv[m2], spec)
        t_vu[m2] = join_m2_labels(t_vu[m2], spec)
        tours[m2] = spec.tour1
