"""Update streams: consistency invariants and shapes."""

import pytest

from repro.graphs import (
    Update,
    WeightedGraph,
    adversarial_clique_stream,
    churn_stream,
    growing_stream,
    random_weighted_graph,
    shrinking_stream,
    sliding_window_stream,
)
from repro.graphs.streams import apply_updates


class TestUpdate:
    def test_normalizes(self):
        u = Update.add(5, 2, 0.5)
        assert u.endpoints == (2, 5)

    def test_add_needs_weight(self):
        with pytest.raises(ValueError):
            Update("add", 0, 1)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Update("toggle", 0, 1)

    def test_delete(self):
        d = Update.delete(3, 1)
        assert d.kind == "delete" and d.endpoints == (1, 3)


def _assert_consistent(stream):
    """Replaying the whole stream must never hit an invalid update."""
    g = stream.initial.copy()
    for batch in stream:
        pairs = set()
        for upd in batch:
            assert upd.endpoints not in pairs, "edge updated twice in a batch"
            pairs.add(upd.endpoints)
            if upd.kind == "add":
                assert not g.has_edge(*upd.endpoints)
            else:
                assert g.has_edge(*upd.endpoints)
        apply_updates(g, batch)
    return g


class TestChurn:
    def test_consistent(self, rng):
        g = random_weighted_graph(20, 40, rng)
        s = churn_stream(g, batch_size=6, n_batches=10, rng=rng)
        final = _assert_consistent(s)
        assert final == s.final_graph()

    def test_batch_count_and_size(self, rng):
        g = random_weighted_graph(20, 40, rng)
        s = churn_stream(g, batch_size=5, n_batches=7, rng=rng)
        assert len(s) == 7
        assert all(len(b) <= 5 for b in s)

    def test_growing_only_adds(self, rng):
        g = random_weighted_graph(15, 20, rng)
        s = growing_stream(g, 4, 5, rng)
        assert all(u.kind == "add" for b in s for u in b)
        _assert_consistent(s)

    def test_shrinking_only_deletes(self, rng):
        g = random_weighted_graph(15, 60, rng)
        s = shrinking_stream(g, 4, 5, rng)
        assert all(u.kind == "delete" for b in s for u in b)
        _assert_consistent(s)

    def test_shrinking_exhausts_gracefully(self, rng):
        g = random_weighted_graph(5, 3, rng, connected=False)
        s = shrinking_stream(g, 4, 5, rng)
        _assert_consistent(s)


class TestSlidingWindow:
    def test_window_expiry(self, rng):
        s = sliding_window_stream(n=30, window=3, batch_size=5, n_batches=10, rng=rng)
        _assert_consistent(s)
        # After the warm-up, every batch deletes roughly what expired.
        final = s.final_graph()
        assert final.m <= 3 * 5  # at most `window` batches live

    def test_replay_yields_intermediate_graphs(self, rng):
        s = sliding_window_stream(n=20, window=2, batch_size=3, n_batches=5, rng=rng)
        count = 0
        for batch, g in s.replay():
            count += 1
            assert g.m >= 0
        assert count == 5


class TestAdversarialClique:
    def test_add_then_delete(self, rng):
        g = random_weighted_graph(20, 30, rng)
        s = adversarial_clique_stream(g, clique_vertices=range(8), rng=rng)
        assert len(s) == 2
        _assert_consistent(s)
        assert s.final_graph() == g

    def test_weights_globally_minimal(self, rng):
        g = random_weighted_graph(20, 30, rng)
        s = adversarial_clique_stream(g, range(8), rng=rng, weight_scale=1e-9)
        min_existing = min(e.weight for e in g.edges())
        assert all(u.weight < min_existing for u in s.batches[0])

    def test_needs_three_vertices(self, rng):
        with pytest.raises(ValueError):
            adversarial_clique_stream(WeightedGraph(range(5)), [0, 1], rng=rng)
