"""§6.2 batch deletions (the Las-Vegas half of Theorem 6.1)."""

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.core.batch_deletion import batch_delete
from repro.errors import InconsistentUpdate
from repro.graphs import (
    Update,
    WeightedGraph,
    random_weighted_graph,
    shrinking_stream,
)


def _dm(graph, k=4, seed=0, **kw):
    return DynamicMST.build(graph, k, rng=seed, init="free", **kw)


class TestCorrectness:
    def test_delete_non_mst_edges_trivial(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 9.0)])
        dm = _dm(g)
        rep = dm.apply_batch([Update.delete(0, 2)])
        dm.check()
        assert rep.details["del_mst_dels"] == 0

    def test_replacements_found(self):
        # Cycle: deleting two tree edges pulls the two chords in.
        g = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 9.0), (1, 3, 8.0)]
        )
        dm = _dm(g)
        dm.apply_batch([Update.delete(0, 1), Update.delete(1, 2)])
        dm.check()
        assert dm.in_mst(0, 3) and dm.in_mst(1, 3)

    def test_disconnection_yields_forest(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        dm = _dm(g)
        dm.apply_batch([Update.delete(1, 2)])
        dm.check()
        assert len(dm.msf_edges()) == 2

    def test_delete_whole_tree(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        dm = _dm(g)
        dm.apply_batch(
            [Update.delete(0, 1), Update.delete(1, 2), Update.delete(0, 2)]
        )
        dm.check()
        assert dm.msf_edges() == set()

    def test_deletions_across_multiple_tours(self):
        g = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 2.0)]
        )
        dm = _dm(g)
        dm.apply_batch([Update.delete(0, 1), Update.delete(4, 5)])
        dm.check()
        assert dm.in_mst(3, 5)

    @pytest.mark.parametrize("engine", ["boruvka", "lotker", "sample_gather"])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_vs_oracle_all_engines(self, engine, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 24))
        m = int(rng.integers(n, n * (n - 1) // 2 + 1))
        g = random_weighted_graph(n, m, rng, connected=False)
        dm = DynamicMST.build(
            g, int(rng.integers(2, 7)), rng=rng, init="free", engine=engine
        )
        for batch in shrinking_stream(g, int(rng.integers(1, 8)), 5, rng):
            if batch:
                dm.apply_batch(batch)
                dm.check()

    def test_duplicate_pair_raises_before_any_charge(self):
        """A direct call gets no ``apply_batch`` validation: the pair given
        both ways round must raise, as ``batch_add`` does, not collapse."""
        dm = _dm(WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]))
        before = dm.net.ledger.digest()
        with pytest.raises(InconsistentUpdate, match="duplicate"):
            batch_delete(dm.net, dm.vp, dm.states, [(1, 2), (2, 1)], dm._next_tour_id)
        assert dm.net.ledger.digest() == before
        dm.check()


class TestProtocolShape:
    def test_components_counted(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        dm = _dm(g)
        rep = dm.apply_batch([Update.delete(1, 2), Update.delete(2, 3)])
        assert rep.details["del_components"] == 3
        assert rep.details["del_mst_dels"] == 2

    def test_candidate_bound_per_machine(self):
        """§6.2 step 3: at most components-1 candidates per machine."""
        rng = np.random.default_rng(2)
        g = random_weighted_graph(60, 400, rng)
        dm = DynamicMST.build(g, 6, rng=rng, init="free")
        batch = next(iter(shrinking_stream(dm.shadow.copy(), 6, 1, rng)))
        rep = dm.apply_batch(batch)
        comps = rep.details["del_components"]
        assert rep.details["del_candidates"] <= 6 * max(comps - 1, 0) + 6

    def test_rounds_flat_in_batch_size_up_to_k(self):
        rng = np.random.default_rng(5)
        k = 16
        means = {}
        for b in (2, 16):
            g = random_weighted_graph(300, 1200, rng)
            dm = DynamicMST.build(g, k, rng=rng, init="free")
            costs = [
                dm.apply_batch(batch).rounds
                for batch in shrinking_stream(dm.shadow.copy(), b, 5, rng)
                if batch
            ]
            means[b] = float(np.mean(costs))
        assert means[16] < 3.5 * means[2]
