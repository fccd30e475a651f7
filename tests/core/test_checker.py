"""The consistency checker must actually catch corruptions."""

import pytest

from repro.core import DynamicMST
from repro.core.checker import check_global_consistency
from repro.errors import ProtocolError
from repro.graphs import random_weighted_graph


@pytest.fixture
def dm(rng):
    # The corruptions below edit the reference engine's dict storage.
    g = random_weighted_graph(20, 50, rng)
    return DynamicMST.build(g, 4, rng=rng, init="free", backend="reference")


def _first_state_with_mst(dm):
    return next(st for st in dm.states if st.mst)


class TestDetections:
    def test_clean_state_passes(self, dm):
        check_global_consistency(dm.states, dm.shadow, dm.vp)

    def test_detects_label_corruption(self, dm):
        st = _first_state_with_mst(dm)
        ete = next(iter(st.mst.values()))
        ete.t_uv += 1
        with pytest.raises(ProtocolError):
            dm.check()

    def test_detects_replica_divergence(self, dm):
        # Corrupt only one copy of a two-machine edge.
        for st in dm.states:
            for key, ete in st.mst.items():
                machines = dm.vp.edge_machines(*key)
                if len(machines) == 2:
                    ete.t_vu += 1
                    with pytest.raises(ProtocolError):
                        dm.check()
                    return
        pytest.skip("no two-machine MST edge in this draw")

    def test_detects_wrong_msf(self, dm):
        st = _first_state_with_mst(dm)
        key, ete = next(iter(st.mst.items()))
        for s in dm.states:
            s.mst.pop(key, None)
        with pytest.raises(ProtocolError):
            dm.check()

    def test_detects_stale_witness(self, dm):
        for st in dm.states:
            for x, w in st.witness.items():
                if w is not None:
                    w.t_uv += 1
                    with pytest.raises(ProtocolError):
                        dm.check()
                    return

    def test_detects_wrong_tour_size(self, dm):
        for st in dm.states:
            if st.tour_size:
                tid = next(iter(st.tour_size))
                st.tour_size[tid] += 2
                with pytest.raises(ProtocolError):
                    dm.check()
                return

    def test_detects_wrong_tour_of(self, dm):
        for st in dm.states:
            for x, tid in st.tour_of.items():
                if tid is not None and st.witness.get(x) is not None:
                    st.tour_of[x] = tid + 12345
                    with pytest.raises(ProtocolError):
                        dm.check()
                    return

    def test_detects_shadow_divergence(self, dm):
        dm.shadow.add_edge(0, 19, 1e-9) if not dm.shadow.has_edge(0, 19) else dm.shadow.remove_edge(0, 19)
        with pytest.raises(ProtocolError):
            dm.check()
