"""The Rerouting Lemma: O(B/k + R) rounds, vs the naive max_i C_i."""

import pytest

from repro.comm import naive_broadcasts, scheduled_broadcasts
from repro.sim import KMachineNetwork


class TestScheduled:
    def test_all_payloads_in_global_order(self):
        net = KMachineNetwork(4)
        reqs = [(2, "a", 1), (0, "b", 1), (2, "c", 1)]
        out = scheduled_broadcasts(net, reqs)
        assert out == [(0, "b"), (2, "a"), (2, "c")]

    def test_empty_is_free(self):
        net = KMachineNetwork(4)
        assert scheduled_broadcasts(net, []) == []
        assert net.ledger.rounds == 0

    def test_rounds_scale_with_b_over_k(self):
        k = 8
        rounds = {}
        for B in (8, 32, 128):
            net = KMachineNetwork(k)
            scheduled_broadcasts(net, [(0, i, 1) for i in range(B)])
            rounds[B] = net.ledger.rounds
        # Linear in B/k: quadrupling B roughly quadruples rounds.
        assert rounds[32] <= 4 * rounds[8] + 2
        assert rounds[128] <= 4 * rounds[32] + 2
        assert rounds[128] >= 2 * rounds[32] - 2

    def test_beats_naive_under_skew(self):
        k = 8
        skewed = [(0, i, 1) for i in range(64)]  # one machine owns all
        net_s, net_n = KMachineNetwork(k), KMachineNetwork(k)
        scheduled_broadcasts(net_s, skewed)
        naive_broadcasts(net_n, skewed)
        assert net_s.ledger.rounds < net_n.ledger.rounds / 2

    def test_balanced_naive_is_fine(self):
        # With one message per machine the naive strategy is optimal too.
        k = 8
        reqs = [(m, f"x{m}", 1) for m in range(k)]
        net_n = KMachineNetwork(k)
        naive_broadcasts(net_n, reqs)
        assert net_n.ledger.rounds == 1

    def test_payload_width_multiplies_cost(self):
        k = 4
        net1, net3 = KMachineNetwork(k), KMachineNetwork(k)
        scheduled_broadcasts(net1, [(0, i, 1) for i in range(8)])
        scheduled_broadcasts(net3, [(0, i, 3) for i in range(8)])
        assert net3.ledger.rounds > net1.ledger.rounds

    def test_rejects_bad_width(self):
        net = KMachineNetwork(4)
        with pytest.raises(ValueError):
            scheduled_broadcasts(net, [(0, "x", 0)])


class TestNaive:
    def test_delivers_everything(self):
        net = KMachineNetwork(4)
        reqs = [(1, "a", 1), (1, "b", 1), (3, "c", 1)]
        out = naive_broadcasts(net, reqs)
        assert out == [(1, "a"), (1, "b"), (3, "c")]

    def test_cost_is_max_per_machine(self):
        net = KMachineNetwork(8)
        naive_broadcasts(net, [(0, i, 1) for i in range(10)] + [(1, "x", 1)])
        assert net.ledger.rounds == 10
