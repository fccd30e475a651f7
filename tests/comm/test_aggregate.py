"""Converge-casts and the batched-queries pattern of §6.1 step 6."""

import pytest

from repro.comm import batched_queries, converge_cast, global_max, global_min, global_sum
from repro.sim import KMachineNetwork


class TestConvergeCast:
    def test_root_learns_combined(self):
        net = KMachineNetwork(4)
        assert converge_cast(net, 2, [1, 7, None, 3], max) == 7
        assert net.ledger.rounds == 1

    def test_all_none(self):
        net = KMachineNetwork(4)
        assert converge_cast(net, 0, [None] * 4, min) is None

    def test_wrong_arity(self):
        net = KMachineNetwork(4)
        with pytest.raises(ValueError):
            converge_cast(net, 0, [1, 2], min)


class TestGlobals:
    def test_min_max_sum(self):
        net = KMachineNetwork(5)
        assert global_min(net, [4, 2, None, 9, 5]) == 2
        assert global_max(net, [4, 2, None, 9, 5]) == 9
        assert global_sum(net, [1, 1, 1, None, 1]) == 4

    def test_constant_rounds(self):
        net = KMachineNetwork(16)
        global_min(net, list(range(16)))
        assert net.ledger.rounds <= 4


class TestBatchedQueries:
    def test_answers_correct(self):
        net = KMachineNetwork(4)
        queries = {
            "q0": [3, None, 5, 1],
            "q1": [None, None, None, 8],
            "q2": [None] * 4,
        }
        ans = batched_queries(net, queries, min)
        assert ans == {"q0": 1, "q1": 8, "q2": None}

    def test_empty(self):
        net = KMachineNetwork(4)
        assert batched_queries(net, {}, min) == {}
        assert net.ledger.rounds == 0

    def test_rounds_scale_with_q_over_k(self):
        k = 8
        results = {}
        for Q in (8, 64):
            net = KMachineNetwork(k)
            queries = {q: [q * 17 % (m + 1) for m in range(k)] for q in range(Q)}
            batched_queries(net, queries, min)
            results[Q] = net.ledger.rounds
        assert results[64] < 8 * max(results[8], 4) + 8

    def test_collation_spreads_load(self):
        # All contributions come from one machine; collators rotate mod k,
        # so no single link sees Q words.
        k, Q = 8, 40
        net = KMachineNetwork(k)
        queries = {q: [7 if m == 0 else None for m in range(k)] for q in range(Q)}
        batched_queries(net, queries, min)
        assert net.ledger.rounds < Q


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.integers(2, 8),
    st.dictionaries(
        st.integers(0, 20),
        st.lists(st.one_of(st.none(), st.integers(-50, 50)), min_size=8, max_size=8),
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_batched_queries_property(k, raw):
    """Property: batched answers equal per-query min over non-None values."""
    k = 8  # value lists above are built for 8 machines
    net = KMachineNetwork(k)
    queries = {q: vals for q, vals in raw.items()}
    got = batched_queries(net, queries, min)
    for q, vals in queries.items():
        nn = [v for v in vals if v is not None]
        assert got[q] == (min(nn) if nn else None)
