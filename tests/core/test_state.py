"""Per-machine Euler state: storage rules and local queries."""

import pytest

from repro.core.state import MachineState
from repro.errors import ProtocolError
from repro.euler.tour import ETEdge
from repro.sim import Machine


def _state():
    st = MachineState(0, vertices=[0, 1, 2], machine=Machine(0))
    return st


class TestGraphEdges:
    def test_store_tracks_remote_endpoint(self):
        st = _state()
        st.store_graph_edge(1, 9, 0.5)
        assert st.hosts_edge(9, 1)
        assert 9 in st.tracked and st.witness.get(9, "missing") is None
        assert st.tour_id(9) is None and st.witness_snapshot(9) is None

    def test_duplicate_rejected(self):
        st = _state()
        st.store_graph_edge(0, 1, 0.5)
        with pytest.raises(ProtocolError):
            st.store_graph_edge(1, 0, 0.7)

    def test_drop_is_idempotent(self):
        st = _state()
        st.store_graph_edge(0, 1, 0.5)
        st.drop_graph_edge(0, 1)
        st.drop_graph_edge(0, 1)
        assert not st.hosts_edge(0, 1)


class TestMstEdges:
    def test_add_pop(self):
        st = _state()
        st.store_graph_edge(0, 1, 0.5)
        st.add_mst_edge(ETEdge(0, 1, 0.5, 0, 1, 7))
        assert st.pop_mst_edge(1, 0).tour == 7
        assert st.pop_mst_edge(0, 1) is None

    def test_double_add_rejected(self):
        st = _state()
        st.add_mst_edge(ETEdge(0, 1, 0.5, 0, 1, 7))
        with pytest.raises(ProtocolError):
            st.add_mst_edge(ETEdge(0, 1, 0.5, 2, 3, 7))

    def test_outgoing_value(self):
        st = _state()
        # Path 0-1-2: tour 0->1->2->1->0, labels: (0,1): 0/3, (1,2): 1/2.
        st.add_mst_edge(ETEdge(0, 1, 0.5, 0, 3, 7))
        st.add_mst_edge(ETEdge(1, 2, 0.6, 1, 2, 7))
        assert st.outgoing_value(0) == 0
        assert st.outgoing_value(1) == 1
        assert st.outgoing_value(2) == 2

    def test_parent_interval(self):
        st = _state()
        st.add_mst_edge(ETEdge(0, 1, 0.5, 0, 3, 7))
        st.add_mst_edge(ETEdge(1, 2, 0.6, 1, 2, 7))
        assert st.parent_interval(0) is None  # root
        assert st.parent_interval(1) == (0, 3)
        assert st.parent_interval(2) == (1, 2)

    def test_pick_witness_deterministic_copy(self):
        st = _state()
        st.add_mst_edge(ETEdge(0, 1, 0.5, 0, 3, 7))
        w = st.pick_witness(1)
        assert (w.u, w.v) == (0, 1)
        w.t_uv = 99  # mutating the copy must not touch the stored edge
        assert st.mst[(0, 1)].t_uv == 0

    def test_pick_witness_isolated(self):
        st = _state()
        assert st.pick_witness(2) is None


class TestSpaceGauges:
    def test_gauges_move_with_state(self):
        st = _state()
        st.store_graph_edge(0, 1, 0.5)
        used_after_edge = st.machine.space_words
        st.add_mst_edge(ETEdge(0, 1, 0.5, 0, 1, 7))
        assert st.machine.space_words > used_after_edge
        st.drop_graph_edge(0, 1)
        st.pop_mst_edge(0, 1)
        assert st.machine.peak_words >= st.machine.space_words


def _gauges(dm):
    return [(dict(sorted(m._gauges.items())), m.peak_words) for m in dm.net.machines]


#: Per-machine gauges and peak words of one fixed graph (n=60, m=150,
#: k=4, seed 7), recorded before the columnar state became resident and
#: before make_states sampled its gauges once per machine.  Both moves
#: must leave every sample that can set a peak where it was.
_FREE = [
    ({"graph_edges": 162, "mst_edges": 176, "tours": 49, "witness": 376}, 855),
    ({"graph_edges": 219, "mst_edges": 232, "tours": 52, "witness": 400}, 1001),
    ({"graph_edges": 171, "mst_edges": 192, "tours": 49, "witness": 376}, 880),
    ({"graph_edges": 261, "mst_edges": 280, "tours": 55, "witness": 424}, 1124),
]
_AFTER_CHURN = [
    ({"graph_edges": 162, "mst_edges": 168, "tours": 52, "witness": 400}, 855),
    ({"graph_edges": 204, "mst_edges": 216, "tours": 52, "witness": 400}, 1001),
    ({"graph_edges": 171, "mst_edges": 208, "tours": 49, "witness": 376}, 880),
    ({"graph_edges": 258, "mst_edges": 288, "tours": 56, "witness": 432}, 1124),
]
_DISTRIBUTED_PEAKS = {
    "inproc-columnar": [763, 903, 788, 1020],
    "reference": [771, 905, 798, 1022],
}


class TestSpaceGaugesPinned:
    @pytest.mark.parametrize("backend", ["inproc-columnar", "reference"])
    def test_free_init_then_churn(self, backend):
        import numpy as np

        from repro.core import DynamicMST
        from repro.graphs import churn_stream, random_weighted_graph

        g = random_weighted_graph(60, 150, np.random.default_rng(7))
        dm = DynamicMST.build(g, 4, rng=np.random.default_rng(7), init="free",
                              backend=backend)
        assert _gauges(dm) == _FREE
        for batch in churn_stream(g.copy(), 6, 3, rng=np.random.default_rng(1)):
            dm.apply_batch(batch)
        assert _gauges(dm) == _AFTER_CHURN

    @pytest.mark.parametrize("backend", ["inproc-columnar", "reference"])
    def test_distributed_init(self, backend):
        import numpy as np

        from repro.core import DynamicMST
        from repro.graphs import random_weighted_graph

        g = random_weighted_graph(60, 150, np.random.default_rng(7))
        dm = DynamicMST.build(g, 4, rng=np.random.default_rng(7),
                              init="distributed", backend=backend)
        assert [gauges for gauges, _peak in _gauges(dm)] == [g_ for g_, _p in _FREE]
        assert [peak for _g, peak in _gauges(dm)] == _DISTRIBUTED_PEAKS[backend]
