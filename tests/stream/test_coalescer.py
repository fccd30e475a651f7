"""Unit tests for the admission buffers: the coalescing state machine,
the re-weight waves, and the uncoalesced FIFO's segment splitting."""

import pytest

from repro.graphs import Update, WeightedGraph
from repro.graphs.streams import apply_updates
from repro.stream import AdmissionBuffer, CoalescingBuffer


def _flush(buf):
    """Cut everything; returns the flat update list in shipping order."""
    out = []
    while buf.pending_cost:
        cut = buf.cut(10**9)
        for batch in cut.batches:
            out.extend(batch)
    return out


class TestCoalescingStateMachine:
    def test_duplicate_add_is_last_write_wins(self):
        buf = CoalescingBuffer()
        buf.admit(Update.add(0, 1, 0.5), 0, 0)
        buf.admit(Update.add(0, 1, 0.9), 1, 1)
        shipped = _flush(buf)
        assert shipped == [Update.add(0, 1, 0.9)]
        assert buf.admitted == 2 and buf.absorbed == 1

    def test_add_then_delete_annihilates(self):
        buf = CoalescingBuffer()
        buf.admit(Update.add(0, 1, 0.5), 0, 0)
        buf.admit(Update.delete(0, 1), 1, 1)
        assert buf.pending_cost == 0
        assert _flush(buf) == []
        assert buf.admitted == 2 and buf.absorbed == 2

    def test_delete_then_add_is_reweight(self):
        buf = CoalescingBuffer()
        buf.admit(Update.delete(0, 1), 0, 0)
        buf.admit(Update.add(0, 1, 0.7), 1, 1)
        assert buf.pending_cost == 2
        cut = buf.cut(10)
        # The delete and the re-insert must land in separate sub-batches,
        # delete first — apply_batch rejects a pair touched twice.
        assert cut.batches == [[Update.delete(0, 1)], [Update.add(0, 1, 0.7)]]
        assert cut.shipped == 2

    def test_duplicate_delete_dedups(self):
        buf = CoalescingBuffer()
        buf.admit(Update.delete(0, 1), 0, 0)
        buf.admit(Update.delete(0, 1), 1, 1)
        assert _flush(buf) == [Update.delete(0, 1)]
        assert buf.absorbed == 1

    def test_reweight_then_delete_collapses_to_delete(self):
        buf = CoalescingBuffer()
        buf.admit(Update.delete(0, 1), 0, 0)
        buf.admit(Update.add(0, 1, 0.7), 1, 1)
        buf.admit(Update.delete(0, 1), 2, 2)
        assert buf.pending_cost == 1
        assert _flush(buf) == [Update.delete(0, 1)]
        assert buf.admitted == 3 and buf.absorbed == 2

    def test_reweight_weight_is_last_write_wins(self):
        buf = CoalescingBuffer()
        buf.admit(Update.delete(0, 1), 0, 0)
        buf.admit(Update.add(0, 1, 0.7), 1, 1)
        buf.admit(Update.add(0, 1, 0.2), 2, 2)
        cut = buf.cut(10)
        assert cut.batches[1] == [Update.add(0, 1, 0.2)]
        assert buf.absorbed == 1

    def test_absorbed_latencies_resolve_at_admit_time(self):
        buf = CoalescingBuffer()
        buf.admit(Update.add(0, 1, 0.5), 0, 0)
        buf.admit(Update.delete(0, 1), 7, 7)
        # The queued add waited 7 ticks; the delete resolved instantly.
        assert sorted(buf.drain_resolved()) == [0, 7]
        assert buf.drain_resolved() == []


class TestCoalescingCuts:
    def test_cut_respects_limit_and_fifo_order(self):
        buf = CoalescingBuffer()
        for i in range(6):
            buf.admit(Update.add(0, i + 1, float(i)), i, i)
        cut = buf.cut(4)
        assert cut.shipped == 4
        assert [u.endpoints for u in cut.batches[0]] == [
            (0, 1), (0, 2), (0, 3), (0, 4)
        ]
        assert buf.pending_cost == 2
        assert buf.oldest_tick == 4

    def test_reweights_ship_in_a_second_wave(self):
        buf = CoalescingBuffer()
        buf.admit(Update.add(0, 1, 0.5), 0, 0)
        buf.admit(Update.delete(0, 2), 0, 0)
        buf.admit(Update.add(0, 2, 0.7), 0, 0)  # reweight
        buf.admit(Update.delete(0, 3), 0, 0)
        cut = buf.cut(10**9)
        assert cut.batches == [
            [Update.add(0, 1, 0.5), Update.delete(0, 2), Update.delete(0, 3)],
            [Update.add(0, 2, 0.7)],
        ]

    def test_cut_takes_at_least_one_entry(self):
        buf = CoalescingBuffer()
        buf.admit(Update.delete(0, 1), 0, 0)
        buf.admit(Update.add(0, 1, 0.5), 0, 0)  # reweight, cost 2
        cut = buf.cut(1)
        assert cut.shipped == 2  # a cost-2 entry still ships under limit 1

    def test_pairs_disjoint_within_each_batch(self):
        buf = CoalescingBuffer()
        for i in range(4):
            buf.admit(Update.delete(i, i + 10), 0, 0)
            buf.admit(Update.add(i, i + 10, 0.5), 1, 1)
        cut = buf.cut(10**9)
        for batch in cut.batches:
            pairs = [u.endpoints for u in batch]
            assert len(pairs) == len(set(pairs))

    def test_net_effect_matches_direct_replay(self):
        g = WeightedGraph(range(6))
        g.add_edge(0, 1, 0.3)
        g.add_edge(1, 2, 0.4)
        seq = [
            Update.add(2, 3, 0.1), Update.delete(0, 1),
            Update.add(0, 1, 0.9), Update.delete(2, 3),
            Update.add(4, 5, 0.2), Update.delete(4, 5),
            Update.add(4, 5, 0.6), Update.delete(1, 2),
            Update.delete(0, 1),
        ]
        direct = g.copy()
        for upd in seq:
            apply_updates(direct, [upd])
        buf = CoalescingBuffer()
        for t, upd in enumerate(seq):
            buf.admit(upd, t, t)
        replayed = g.copy()
        cut = buf.cut(10**9)
        for batch in cut.batches:
            apply_updates(replayed, batch)
        assert {e.key() for e in replayed.edges()} == {
            e.key() for e in direct.edges()
        }
        assert cut.shipped < len(seq)


class TestAdmissionBuffer:
    def test_ships_everything_in_order(self):
        buf = AdmissionBuffer()
        seq = [Update.add(0, 1, 0.5), Update.add(0, 2, 0.6),
               Update.delete(0, 1)]
        for t, upd in enumerate(seq):
            buf.admit(upd, t, t)
        assert buf.pending_cost == 3
        assert _flush(buf) == seq
        assert buf.absorbed == 0

    def test_splits_on_repeated_pair(self):
        buf = AdmissionBuffer()
        buf.admit(Update.add(0, 1, 0.5), 0, 0)
        buf.admit(Update.delete(0, 1), 1, 1)
        buf.admit(Update.add(0, 1, 0.8), 2, 2)
        cut = buf.cut(10)
        assert [len(b) for b in cut.batches] == [1, 1, 1]
        for batch in cut.batches:
            pairs = [u.endpoints for u in batch]
            assert len(pairs) == len(set(pairs))

    def test_distinct_pairs_share_one_batch(self):
        buf = AdmissionBuffer()
        for i in range(5):
            buf.admit(Update.add(0, i + 1, 0.5), i, i)
        cut = buf.cut(10)
        assert [len(b) for b in cut.batches] == [5]

    def test_cut_limit_leaves_the_rest(self):
        buf = AdmissionBuffer()
        for i in range(5):
            buf.admit(Update.add(0, i + 1, 0.5), i, i)
        cut = buf.cut(3)
        assert cut.shipped == 3
        assert buf.pending_cost == 2
        assert buf.oldest_tick == 3
        assert cut.shipped_ticks == [0, 1, 2]


@pytest.mark.parametrize("cls", [AdmissionBuffer, CoalescingBuffer])
def test_empty_buffer_shape(cls):
    buf = cls()
    assert buf.pending_cost == 0
    assert buf.oldest_tick is None
    assert buf.drain_resolved() == []
