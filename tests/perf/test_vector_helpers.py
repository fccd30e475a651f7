"""The vectorized protocol helpers agree with their scalar definitions.

The columnar engine's protocol-side kernels — the §6.2 component map and
the §6.1 M′ membership scan — are pure reformulations: every answer they
give must equal the scalar function they replace, and every case they
cannot decide must be flagged, never guessed.
"""

import numpy as np
import pytest

from repro.core.decomposition import in_m_prime
from repro.core.state import MachineState
from repro.euler.brackets import BracketComponents
from repro.euler.tour import ETEdge
from repro.perf.components import (
    FALLBACK,
    UNAFFECTED,
    component_codes,
    tour_interval_arrays,
)
from repro.perf.steiner import m_prime_members, steiner_degrees


def _random_nesting(rng, size, m):
    """m random non-crossing intervals over distinct labels in [0, size)."""
    labels = sorted(int(x) for x in rng.choice(size, size=2 * m, replace=False))
    opens, pairs = [], []
    n_open = 0
    for i, lab in enumerate(labels):
        remaining = 2 * m - i
        must_close = len(opens) == remaining
        must_open = not opens
        if not must_close and (
            must_open or (n_open < m and rng.random() < 0.5)
        ):
            opens.append(lab)
            n_open += 1
        else:
            pairs.append((opens.pop(), lab))
    return pairs


class TestComponentMap:
    @pytest.mark.parametrize("seed", range(10))
    def test_innermost_matches_bracket_walk(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(8, 120))
        m = int(rng.integers(1, max(2, size // 4)))
        bc = BracketComponents(_random_nesting(rng, size, m), size)
        arrays = tour_interval_arrays({7: bc})
        starts, ends, parents, deleted = arrays[7]
        surviving = np.array(
            [w for w in range(size) if w not in bc._deleted_labels],
            dtype=np.int64,
        )
        if not surviving.size:
            return
        from repro.euler.vectorized import innermost_intervals

        got = innermost_intervals(starts, ends, parents, surviving) + 1
        want = [bc.component_of_label(int(w)) for w in surviving]
        assert got.tolist() == want

    @staticmethod
    def _codes(rows, brackets, comp_base):
        """component_codes over rows of (tour, witness labels or None)."""
        tours = np.array([t for t, _w in rows], dtype=np.int64)
        wt1 = np.array([w[0] if w else 0 for _t, w in rows], dtype=np.int64)
        wt2 = np.array([w[1] if w else 0 for _t, w in rows], dtype=np.int64)
        walive = np.array([w is not None for _t, w in rows], dtype=bool)
        return component_codes(
            tours, wt1, wt2, walive, brackets, comp_base,
            tour_interval_arrays(brackets),
        ).tolist()

    def test_fallback_and_none_classification(self):
        # Tour 1 is affected (one deleted interval), tour 2 is not.
        bc = BracketComponents([(1, 4)], 6)
        got = self._codes(
            [
                (1, (2, 3)),   # surviving labels → decided
                (1, None),     # missing → fallback
                (2, (0, 5)),   # unaffected tour → None
                (1, (1, 4)),   # deleted pair → fallback
            ],
            {1: bc}, {1: 0},
        )
        assert got[0] == bc.component_of_label(2)  # comp_base is 0
        assert got[1] == FALLBACK
        assert got[2] == UNAFFECTED
        assert got[3] == FALLBACK

    def test_out_of_range_label_falls_back(self):
        bc = BracketComponents([(1, 2)], 4)
        got = self._codes(
            [
                (1, (0, 9)),    # 0 survives → decided
                (1, (-3, 7)),   # corrupt → scalar raises it
            ],
            {1: bc}, {1: 5},
        )
        assert got[0] == 5 + bc.component_of_label(0)
        assert got[1] == FALLBACK


def _tour_state(rng, n_edges, tid, size):
    st = MachineState(0, range(n_edges + 1))
    labs = rng.permutation(size)[: 2 * n_edges]
    for i in range(n_edges):
        st.add_mst_edge(
            ETEdge(i, i + 1, float(i), int(labs[2 * i]), int(labs[2 * i + 1]), tid)
        )
    return st


class TestMPrime:
    @pytest.mark.parametrize("seed", range(10))
    def test_members_match_scalar_predicate(self, seed):
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(1, 40))
        size = 2 * n_edges + int(rng.integers(0, 10))
        st = _tour_state(rng, n_edges, tid=3, size=size)
        n_entries = int(rng.integers(2, 7))
        entries = sorted(
            int(x) for x in rng.integers(-1, size, size=n_entries)
        )
        got = {
            (ete.u, ete.v): labels
            for ete, labels in m_prime_members(st, 3, entries)
        }
        want = {
            k: e.labels()
            for k, e in st.mst.items()
            if in_m_prime(e.labels(), entries, assume_sorted=True)
        }
        assert got == want

    def test_degrees_match_scalar_count(self):
        rng = np.random.default_rng(1)
        st = _tour_state(rng, 20, tid=3, size=44)
        entries = sorted(int(x) for x in rng.integers(0, 44, size=4))
        eligible = {3: entries}
        deg = steiner_degrees(st, eligible)
        for x in st.vertices:
            want = sum(
                1
                for e in st.incident_mst(x)
                if e.tour == 3 and in_m_prime(e.labels(), entries)
            )
            assert deg.get(x, 0) == want

    def test_fewer_than_two_entries_is_empty(self):
        rng = np.random.default_rng(2)
        st = _tour_state(rng, 5, tid=1, size=10)
        assert m_prime_members(st, 1, [4]) == []
        assert m_prime_members(st, 99, [1, 2]) == []  # unknown tour
