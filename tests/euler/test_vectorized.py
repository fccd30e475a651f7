"""Vectorized label kernels must agree with the scalar reference.

The single-step kernels agree element for element with the scalar
transforms; a :class:`PhaseMap` composed from a phase's specs agrees with
the :class:`EulerForest` oracle that produced them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.euler.labels import SplitSpec, reroot_label, split_label
from repro.euler.tour import EulerForest
from repro.euler.vectorized import PhaseMap, member_mask, reroot_labels, split_labels
from repro.graphs import random_forest
from repro.graphs.graph import Edge


@given(st.integers(1, 200), st.data())
@settings(max_examples=40, deadline=None)
def test_reroot_matches_scalar(size, data):
    d = data.draw(st.integers(0, size - 1))
    labels = np.arange(size)
    got = reroot_labels(labels, d, size)
    want = [reroot_label(int(w), d, size) for w in labels]
    assert got.tolist() == want


@given(st.integers(3, 120), st.data())
@settings(max_examples=40, deadline=None)
def test_split_matches_scalar(size, data):
    e_min = data.draw(st.integers(0, size - 2))
    e_max = data.draw(st.integers(e_min + 1, size - 1))
    spec = SplitSpec(e_min, e_max, size, old_tour=5, inside_tour=6)
    survivors = np.array([w for w in range(size) if w not in (e_min, e_max)])
    tours, labels = split_labels(survivors, spec)
    for w, t, l in zip(survivors, tours, labels):
        wt, wl = split_label(int(w), spec)
        assert (t, l) == (wt, wl)


class TestErrors:
    def test_split_rejects_cut_labels(self):
        spec = SplitSpec(2, 7, 10, 0, 1)
        with pytest.raises(ValueError):
            split_labels(np.array([1, 2, 3]), spec)

    def test_reroot_empty_tour(self):
        with pytest.raises(ValueError):
            reroot_labels(np.array([0]), 0, 0)


def _labels(ef):
    return {key: (e.tour, e.t_uv, e.t_vu) for key, e in ef.edges.items()}


def _run_phase(ef, rng, kind, n_ops):
    """Up to ``n_ops`` random cuts or links on the oracle, composed."""
    pm = PhaseMap()
    for _ in range(n_ops):
        if kind == "cut":
            if not ef.edges:
                break
            keys = sorted(ef.edges)
            pm.split(ef.cut(*keys[int(rng.integers(len(keys)))]))
        else:
            xs = sorted(ef.tour_of)
            u, v = (int(x) for x in rng.choice(xs, size=2, replace=False))
            if ef.same_tour(u, v):
                continue
            pm.join(ef.link(u, v, float(rng.random())))
    return pm


@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.sampled_from(["cut", "link"]), st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_phase_map_matches_oracle(seed, n, kind, n_ops):
    rng = np.random.default_rng(seed)
    g = random_forest(n, int(rng.integers(1, n + 1)), rng)
    ef = EulerForest.build(g.vertices(), g.edges())
    start = _labels(ef)
    start_tour = dict(ef.tour_of)
    pm = _run_phase(ef, rng, kind, n_ops)
    ef.validate()
    kept = sorted(set(start) & set(ef.edges))
    snap = np.array([start[key] for key in kept], dtype=np.int64).reshape(-1, 3)
    hit = pm.touched(snap[:, 0])
    tours, t1, t2 = snap[:, 0].copy(), snap[:, 1].copy(), snap[:, 2].copy()
    tours[hit], t1[hit], t2[hit] = pm.edge_images(snap[hit, 0], snap[hit, 1], snap[hit, 2])
    want = [_labels(ef)[key] for key in kept]
    assert list(zip(tours.tolist(), t1.tolist(), t2.tolist())) == want
    for key in set(start) - set(ef.edges):
        # Neither label of a removed edge has an image.
        tour = np.array([start[key][0]])
        for label in start[key][1:]:
            with pytest.raises(ValueError):
                pm.edge_images(tour, np.array([label]), np.array([label]))
    if kind == "link":
        # Joins move tours whole: every vertex's tour follows its start tour.
        xs = sorted(start_tour)
        t0 = np.array([start_tour[x] for x in xs], dtype=np.int64)
        moved = pm.touched(t0)
        t0[moved] = pm.tour_images(t0[moved])
        assert t0.tolist() == [ef.tour_of[x] for x in xs]


class TestPhaseMapErrors:
    @staticmethod
    def _path_cut(cut):
        # Path 0-1-2-3-4 rooted at 0: edge (i, i+1) has labels (i, 7 - i).
        ef = EulerForest.build(range(5), [Edge(i, i + 1, 1.0) for i in range(4)])
        start = _labels(ef)
        pm = PhaseMap()
        pm.split(ef.cut(*cut))
        return pm, start

    def test_label_outside_the_tour_raises(self):
        pm, start = self._path_cut((1, 2))
        tour = start[(0, 1)][0]
        with pytest.raises(ValueError):
            pm.edge_images(np.array([tour]), np.array([0]), np.array([99]))

    def test_straddling_labels_raise(self):
        pm, start = self._path_cut((1, 2))
        tour = start[(0, 1)][0]
        # 0 stays on the root side, 2 lies inside the cut (1, 6).
        with pytest.raises(ProtocolError, match="straddles"):
            pm.edge_images(np.array([tour]), np.array([0]), np.array([2]))

    def test_untouched_tour_is_identity_for_scalar_reads(self):
        pm, _start = self._path_cut((1, 2))
        assert pm.image(999, 5) == (999, 5)
        assert not pm.touched(np.array([999])).any()


class TestMemberMask:
    """``member_mask`` is ``np.isin`` on both of its paths."""

    @given(st.lists(st.integers(-3, 80), max_size=60),
           st.lists(st.integers(0, 60), max_size=12), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_isin(self, values, keys, sparse):
        if sparse:
            # A key far past the lookup table's reach takes np.isin's path.
            keys = keys + [2**42]
            values = values + [2**42, 2**42 + 1]
        vals = np.array(values, dtype=np.int64)
        want = np.isin(vals, np.array(keys, dtype=np.int64))
        assert member_mask(vals, keys).tolist() == want.tolist()

    def test_values_outside_the_key_range(self):
        # Below the smallest key, -1 (an unknown tour), above the largest.
        vals = np.array([-1, 0, 3, 4, 5, 7, 9, 10, 2**42], dtype=np.int64)
        for keys in ([4, 9], [9], [-1, 5], [4, 2**42], []):
            want = np.isin(vals, np.array(keys, dtype=np.int64))
            assert member_mask(vals, keys).tolist() == want.tolist()
