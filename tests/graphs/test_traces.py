"""Trace workloads: consistency + the structure each one promises."""

import pytest

from repro.graphs import random_weighted_graph
from repro.graphs.streams import apply_updates
from repro.graphs.traces import (
    cascade_stream,
    flash_crowd_stream,
    hotspot_stream,
    rolling_partition_stream,
)


def _assert_consistent(stream):
    g = stream.initial.copy()
    for batch in stream:
        pairs = set()
        for upd in batch:
            assert upd.endpoints not in pairs
            pairs.add(upd.endpoints)
            if upd.kind == "add":
                assert not g.has_edge(*upd.endpoints)
            else:
                assert g.has_edge(*upd.endpoints)
        apply_updates(g, batch)
    return g


class TestHotspot:
    def test_consistent(self, rng):
        g = random_weighted_graph(40, 100, rng)
        _assert_consistent(hotspot_stream(g, 6, 8, rng=rng))

    def test_hot_vertices_dominate(self, rng):
        g = random_weighted_graph(60, 120, rng)
        s = hotspot_stream(g, 10, 10, n_hot=3, hot_fraction=0.9, rng=rng)
        touches = {}
        for batch in s:
            for upd in batch:
                for x in upd.endpoints:
                    touches[x] = touches.get(x, 0) + 1
        top3 = sum(sorted(touches.values(), reverse=True)[:3])
        assert top3 >= 0.4 * sum(touches.values())


class TestCascade:
    def test_consistent(self, rng):
        g = random_weighted_graph(40, 100, rng)
        _assert_consistent(cascade_stream(g, n_cascades=3, region_size=6, rng=rng))

    def test_failure_batches_are_pure_deletions(self, rng):
        g = random_weighted_graph(40, 100, rng)
        s = cascade_stream(g, n_cascades=2, region_size=5, rng=rng)
        assert all(u.kind == "delete" for u in s.batches[0])

    def test_repairs_restore_edge_count(self, rng):
        g = random_weighted_graph(30, 80, rng)
        s = cascade_stream(g, n_cascades=1, region_size=5, rng=rng)
        final = s.final_graph()
        assert final.m == g.m  # everything repaired (new weights)


class TestFlashCrowd:
    def test_consistent_and_bursty(self, rng):
        g = random_weighted_graph(40, 80, rng)
        s = flash_crowd_stream(g, quiet_size=2, burst_size=12, n_cycles=4, rng=rng)
        _assert_consistent(s)
        sizes = [len(b) for b in s]
        assert max(sizes) >= 3 * max(1, min(sizes))


class TestRollingPartition:
    def test_consistent(self, rng):
        g = random_weighted_graph(40, 120, rng)
        _assert_consistent(rolling_partition_stream(g, window=8, n_batches=8, rng=rng))

    def test_deletions_cross_the_window(self, rng):
        g = random_weighted_graph(40, 120, rng)
        s = rolling_partition_stream(g, window=8, n_batches=3, rng=rng)
        verts = sorted(g.vertices())
        inside0 = set(verts[0:8])
        for upd in s.batches[0]:
            if upd.kind == "delete":
                assert (upd.u in inside0) != (upd.v in inside0)


class TestEndToEndTraces:
    """Every trace shape runs clean through the real algorithm."""

    @pytest.mark.parametrize("maker", [
        lambda g, rng: hotspot_stream(g, 5, 5, rng=rng),
        lambda g, rng: cascade_stream(g, 2, 5, rng=rng),
        lambda g, rng: flash_crowd_stream(g, 2, 8, 3, rng=rng),
        lambda g, rng: rolling_partition_stream(g, 6, 5, rng=rng),
    ])
    def test_dynamic_mst_absorbs_trace(self, maker, rng):
        from repro.core import DynamicMST

        g = random_weighted_graph(30, 80, rng)
        dm = DynamicMST.build(g, 4, rng=rng, init="free")
        for batch in maker(g, rng):
            if batch:
                dm.apply_batch(batch)
        dm.check()
