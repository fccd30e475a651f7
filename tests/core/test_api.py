"""The DynamicMST facade: validation, reports, queries, mixed batches."""

import re

import numpy as np
import pytest

from repro.cclique import ENGINES
from repro.core import BatchReport, DynamicMST
from repro.core.snapshot import from_snapshot, to_snapshot
from repro.errors import InconsistentUpdate
from repro.graphs import Update, WeightedGraph, churn_stream, random_weighted_graph
from repro.graphs.mst import msf_key_multiset
from repro.graphs import kruskal_msf
from repro.mpc import MPCDynamicMST


def _dm(graph, k=4, seed=0, **kw):
    kw.setdefault("init", "free")
    return DynamicMST.build(graph, k, rng=seed, **kw)


class TestValidation:
    def test_add_existing_rejected(self):
        dm = _dm(WeightedGraph.from_edges([(0, 1, 1.0)]))
        with pytest.raises(InconsistentUpdate):
            dm.apply_batch([Update.add(0, 1, 2.0)])

    def test_delete_missing_rejected(self):
        dm = _dm(WeightedGraph(range(3)))
        with pytest.raises(InconsistentUpdate):
            dm.apply_batch([Update.delete(0, 1)])

    def test_same_pair_twice_rejected(self):
        dm = _dm(WeightedGraph(range(3)))
        with pytest.raises(InconsistentUpdate):
            dm.apply_batch([Update.add(0, 1, 1.0), Update.delete(0, 1)])

    def test_unknown_vertex_rejected(self):
        dm = _dm(WeightedGraph(range(3)))
        with pytest.raises(InconsistentUpdate):
            dm.apply_batch([Update.add(0, 99, 1.0)])

    def test_unknown_engine_rejected_at_construction(self):
        """§6.2 step 8 is the first reader of the engine name, after step 1
        has dropped the batch's graph edges, so every way of constructing
        a structure rejects an unknown name before any state exists."""
        g = random_weighted_graph(60, 180, rng=0)
        unknown = re.escape(f"unknown engine 'typo'; choose from {sorted(ENGINES)}")
        with pytest.raises(ValueError, match=unknown):
            DynamicMST.build(g, 4, rng=0, engine="typo")
        with pytest.raises(ValueError, match=unknown):
            MPCDynamicMST.build(g, 4, rng=0, engine="typo")
        snap = to_snapshot(DynamicMST.build(g, 4, rng=0, init="free"))
        snap["engine"] = "typo"
        with pytest.raises(ValueError, match=unknown):
            from_snapshot(snap)


class TestMixedBatches:
    def test_deletions_then_additions(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        dm = _dm(g)
        dm.apply_batch([Update.delete(1, 2), Update.add(0, 2, 5.0)])
        dm.check()
        assert dm.in_mst(0, 2) and not dm.in_mst(1, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_mixed_stream(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 28))
        m = int(rng.integers(0, n * (n - 1) // 2 // 2))
        g = random_weighted_graph(n, m, rng, connected=False)
        dm = DynamicMST.build(g, int(rng.integers(2, 7)), rng=rng, init="free")
        for batch in churn_stream(g, int(rng.integers(1, 9)), 7, rng=rng):
            dm.apply_batch(batch)
        dm.check()


class TestReportsAndQueries:
    def test_report_fields(self):
        dm = _dm(WeightedGraph(range(4)))
        rep = dm.apply_batch([Update.add(0, 1, 1.0)])
        assert isinstance(rep, BatchReport)
        assert rep.size == 1 and rep.mode == "batch"
        assert rep.rounds > 0 and rep.words > 0
        assert dm.reports[-1] is rep

    def test_empty_batch(self):
        dm = _dm(WeightedGraph(range(3)))
        rep = dm.apply_batch([])
        assert rep.rounds == 0

    def test_total_weight_and_in_mst(self):
        g = WeightedGraph.from_edges([(0, 1, 1.5), (1, 2, 2.5)])
        dm = _dm(g)
        assert dm.total_weight() == pytest.approx(4.0)
        assert dm.in_mst(0, 1) and not dm.in_mst(0, 2)

    def test_msf_edges_match_oracle(self, rng):
        g = random_weighted_graph(30, 90, rng)
        dm = _dm(g, seed=1)
        assert msf_key_multiset(dm.msf_edges()) == msf_key_multiset(kruskal_msf(g))

    def test_peak_space_positive(self, rng):
        g = random_weighted_graph(30, 90, rng)
        dm = _dm(g, seed=1)
        assert dm.peak_space_words() > 0

    def test_one_at_a_time_mode_flag(self):
        g = WeightedGraph(range(4))
        dm = _dm(g)
        rep = dm.apply_one_at_a_time([Update.add(0, 1, 1.0)])
        assert rep.mode == "one_at_a_time"

    def test_init_distributed_records_rounds(self, rng):
        g = random_weighted_graph(30, 60, rng)
        dm = DynamicMST.build(g, 4, rng=rng, init="distributed")
        assert dm.init_rounds > 0

    def test_bad_init_mode(self, rng):
        g = random_weighted_graph(10, 15, rng)
        with pytest.raises(ValueError):
            DynamicMST.build(g, 4, rng=rng, init="telepathy")


class TestSpaceBound:
    def test_theorem_6_1_space(self, rng):
        """Peak per-machine words ≤ c * max(k, m/k + Δ)."""
        g = random_weighted_graph(120, 600, rng)
        k = 8
        dm = DynamicMST.build(g, k, rng=rng, init="free")
        for batch in churn_stream(dm.shadow.copy(), k, 5, rng=rng):
            dm.apply_batch(batch)
        bound = max(k, g.m // k + g.max_degree())
        assert dm.peak_space_words() <= 40 * bound


class TestAutoDispatch:
    def test_small_batches_go_single(self):
        dm = _dm(WeightedGraph(range(6)))
        rep = dm.apply([Update.add(0, 1, 0.5)])
        assert rep.mode == "one_at_a_time"
        rep = dm.apply([Update.add(1, 2, 0.5), Update.add(3, 4, 0.5),
                        Update.add(4, 5, 0.5)])
        assert rep.mode == "batch"

    def test_explicit_modes(self):
        dm = _dm(WeightedGraph(range(4)))
        assert dm.apply([Update.add(0, 1, 0.5)], mode="batch").mode == "batch"
        with pytest.raises(ValueError):
            dm.apply([], mode="telepathically")
