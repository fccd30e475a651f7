"""Unit-level behaviour of the columnar machinery.

The end-to-end contract lives in ``test_fast_path_equivalence``; these
tests pin the pieces it is built from: the fast-path switch's two
layers (an override scope, then ``REPRO_BACKEND``), the partial
tour-index swap, and the affected-slice pack of
:class:`~repro.perf.columnar.MachineLabelPlane`.
"""

import numpy as np
import pytest

from repro.core.state import MachineState
from repro.euler.tour import ETEdge
from repro.perf.columnar import MachineLabelPlane
from repro.perf.config import fast_path_enabled, override_fast_path


class TestConfigPrecedence:
    def test_env_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert fast_path_enabled() is True

    @pytest.mark.parametrize("value,expect", [
        ("reference", False), ("inproc-columnar", True), ("", True),
    ])
    def test_env_values(self, monkeypatch, value, expect):
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert fast_path_enabled() is expect

    def test_override_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inproc-columnar")
        with override_fast_path(False):
            assert fast_path_enabled() is False
            with override_fast_path(True):
                assert fast_path_enabled() is True
            assert fast_path_enabled() is False
        assert fast_path_enabled() is True

    def test_none_override_is_transparent(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        with override_fast_path(None):
            assert fast_path_enabled() is False


def _two_tour_state():
    st = MachineState(0, range(6))
    st.add_mst_edge(ETEdge(0, 1, 1.0, 0, 3, 1))
    st.add_mst_edge(ETEdge(1, 2, 2.0, 1, 2, 1))
    st.add_mst_edge(ETEdge(3, 4, 3.0, 0, 3, 2))
    st.add_mst_edge(ETEdge(4, 5, 4.0, 1, 2, 2))
    for x, tid in ((0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 2)):
        st.tour_of[x] = tid
        st.witness[x] = st.pick_witness(x)
    st.tour_size[1] = 6
    st.tour_size[2] = 6
    return st


class TestReplaceTourGroups:
    def test_matches_rebuild(self):
        st = _two_tour_state()
        # Pretend tour 1 split into tours 1 and 9.
        st.mst[(1, 2)].tour = 9
        st.replace_tour_groups([1], {1: {(0, 1)}, 9: {(1, 2)}})
        by_rebuild = MachineState(0, range(6))
        by_rebuild.mst = st.mst
        by_rebuild.rebuild_indexes()
        for tid in (1, 2, 9):
            assert sorted(st.mst_keys_in_tour(tid)) == sorted(
                by_rebuild.mst_keys_in_tour(tid)
            )

    def test_stale_buckets_dropped(self):
        st = _two_tour_state()
        st.replace_tour_groups([1, 2], {5: {(0, 1), (1, 2), (3, 4), (4, 5)}})
        assert st.mst_keys_in_tour(1) == []
        assert st.mst_keys_in_tour(2) == []
        assert len(st.mst_keys_in_tour(5)) == 4


class TestPlanePack:
    def test_only_affected_tours_packed(self):
        st = _two_tour_state()
        pl = MachineLabelPlane(st, a_orig={1}, eps=set())
        assert sorted(pl.keys) == [(0, 1), (1, 2)]
        assert sorted(pl.vx_list) == [0, 1, 2]
        # Tour-2 rows are invisible to the plane.
        assert (3, 4) not in pl.erow and 4 not in pl.vrow

    def test_endpoints_packed_even_when_tourless(self):
        st = _two_tour_state()
        st.tour_of[5] = None
        st.witness[5] = None
        pl = MachineLabelPlane(st, a_orig={1}, eps={5})
        i = pl.vrow[5]
        assert pl.tour_id_of(5) is None
        assert not pl.walive[i]

    def test_accessors_mirror_state(self):
        st = _two_tour_state()
        pl = MachineLabelPlane(st, a_orig={1, 2}, eps=set())
        for x in range(6):
            assert pl.tour_id_of(x) == st.tour_of[x]
            snap = pl.witness_snapshot(x)
            assert snap == st.witness[x].snapshot()
            assert all(isinstance(f, (int, float)) for f in snap)
        for x in range(6):
            assert pl.outgoing_value(x) == st.outgoing_value(x)

    def test_scatter_of_untouched_plane_is_identity(self):
        st = _two_tour_state()
        before = {
            "mst": {k: e.snapshot() for k, e in st.mst.items()},
            "witness": {x: w.snapshot() for x, w in st.witness.items()},
            "tour_of": dict(st.tour_of),
        }
        pl = MachineLabelPlane(st, a_orig={1, 2}, eps=set())
        pl.scatter()
        assert {k: e.snapshot() for k, e in st.mst.items()} == before["mst"]
        assert {x: w.snapshot() for x, w in st.witness.items()} == before["witness"]
        assert dict(st.tour_of) == before["tour_of"]
        # Scatter must not have replaced surviving witness objects.
        assert all(not r for r in pl.wreplaced)

    def test_install_witness_kills_and_replaces(self):
        st = _two_tour_state()
        pl = MachineLabelPlane(st, a_orig={1}, eps=set())
        pl.install_witness(1, None, None)
        i = pl.vrow[1]
        assert not pl.walive[i] and pl.tour_id_of(1) is None
        snap = (0, 1, 1.0, 0, 3, 1)
        pl.install_witness(1, snap, 1)
        assert pl.walive[i] and pl.witness_snapshot(1) == snap
        pl.scatter()
        assert st.witness[1].snapshot() == snap
