"""Unit-level behaviour of the columnar machinery.

The end-to-end contract lives in ``test_fast_path_equivalence``; these
tests pin the pieces it is built from: the engine switch (fixed per
network, from a named backend or ``REPRO_BACKEND``) and the resident
fleet columns of :mod:`repro.perf.columnar` answering the state seam as
the reference dicts do.
"""

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.core.snapshot import restore_states
from repro.core.state import MachineState
from repro.euler.tour import ETEdge
from repro.graphs import random_weighted_graph
from repro.perf.columnar import ColumnarMachineState, FleetColumns
from repro.perf.config import fast_path_enabled
from repro.sim import KMachineNetwork


class TestConfigPrecedence:
    def test_env_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert fast_path_enabled(KMachineNetwork(2)) is True

    @pytest.mark.parametrize("value,expect", [
        ("reference", False), ("inproc-columnar", True), ("", True),
    ])
    def test_env_values(self, monkeypatch, value, expect):
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert fast_path_enabled(KMachineNetwork(2)) is expect

    def test_override_beats_everything(self, monkeypatch):
        # A named engine outranks the environment, and the network keeps
        # it when the environment changes afterwards.
        monkeypatch.setenv("REPRO_BACKEND", "inproc-columnar")
        net = KMachineNetwork(2, fast=False)
        assert fast_path_enabled(net) is False
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert fast_path_enabled(KMachineNetwork(2, fast=True)) is True
        assert fast_path_enabled(net) is False

    def test_none_override_is_transparent(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        net = KMachineNetwork(2, fast=None)
        monkeypatch.setenv("REPRO_BACKEND", "inproc-columnar")
        assert fast_path_enabled(net) is False


_EDGES = (
    ETEdge(0, 1, 1.0, 0, 3, 1), ETEdge(1, 2, 2.0, 1, 2, 1),
    ETEdge(3, 4, 3.0, 0, 3, 2), ETEdge(4, 5, 4.0, 1, 2, 2),
)
_TOURS = ((0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 2))


def _fill(st):
    for e in _EDGES:
        st.add_mst_edge(ETEdge(*e.snapshot()))
    for x, tid in _TOURS:
        st.set_tour_id(x, tid)
        w = st.pick_witness(x)
        st.set_witness(x, w.snapshot() if w is not None else None)
    st.tour_size[1] = 6
    st.tour_size[2] = 6
    return st


def _two_tour_states():
    """The same two-tour machine in both storages."""
    ref = MachineState(0, range(6))
    fleet = FleetColumns(1)
    col = ColumnarMachineState(0, range(6), None, fleet)
    for x in range(6):
        fleet.add_vertex_row(0, x, True, -1, False)
    return _fill(ref), _fill(col)


class TestFleetColumns:
    def test_accessors_mirror_state(self):
        ref, col = _two_tour_states()
        for x in range(6):
            assert col.tour_id(x) == ref.tour_id(x)
            snap = col.witness_snapshot(x)
            assert snap == ref.witness_snapshot(x)
            assert all(isinstance(f, (int, float)) for f in snap)
            assert col.outgoing_value(x) == ref.outgoing_value(x)
            assert col.parent_interval(x) == ref.parent_interval(x)
        for tid in (1, 2):
            assert sorted(col.mst_keys_in_tour(tid)) == sorted(ref.mst_keys_in_tour(tid))
        assert col.live_tours() == ref.live_tours() == {1, 2}
        assert col.record() == ref.record()

    def test_tourless_vertex_reads_none(self):
        ref, col = _two_tour_states()
        for st in (ref, col):
            st.set_tour_id(5, None)
            st.set_witness(5, None)
            assert st.tour_id(5) is None
            assert st.witness_snapshot(5) is None
        assert col.record() == ref.record()

    def test_install_witness_kills_and_replaces(self):
        _ref, col = _two_tour_states()
        col.set_witness(1, None)
        assert col.witness_snapshot(1) is None
        # A killed witness keeps its entry (the space gauge counts it).
        assert 1 in dict(col.witness_items())
        snap = (0, 1, 1.0, 0, 3, 1)
        col.set_witness(1, snap)
        assert col.witness_snapshot(1) == snap

    def test_pop_then_compact_keeps_rows_addressable(self):
        ref, col = _two_tour_states()
        fleet = col.fleet
        for st in (ref, col):
            assert st.pop_mst_edge(1, 0).snapshot() == (0, 1, 1.0, 0, 3, 1)
            assert st.pop_mst_edge(0, 1) is None
        fleet._compact_edges()
        assert fleet.ne == 3
        assert col.mst_edge((4, 5)).snapshot() == ref.mst_edge((4, 5)).snapshot()
        assert col.record() == ref.record()

    def test_record_round_trips_through_restore(self):
        g = random_weighted_graph(30, 70, np.random.default_rng(2))
        dm = DynamicMST.build(g, 3, rng=np.random.default_rng(2), init="free",
                              backend="inproc-columnar")
        records = [st.record() for st in dm.states]
        back = restore_states(records, KMachineNetwork(3, fast=True))
        assert [st.record() for st in back] == records
        ref = restore_states(records, KMachineNetwork(3, fast=False))
        assert [st.record() for st in ref] == records
