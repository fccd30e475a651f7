"""Lenzen routing and sorting (Theorem 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import lenzen_route, lenzen_sort
from repro.sim import KMachineNetwork, Message


class TestRoute:
    def test_delivery_with_sources(self):
        net = KMachineNetwork(4)
        msgs = [Message(0, 3, "a", 1), Message(1, 3, "b", 1), Message(2, 0, "c", 1)]
        inbox = lenzen_route(net, msgs)
        assert [(s, p) for s, p in inbox[3]] == [(0, "a"), (1, "b")]
        assert inbox[0] == [(2, "c")]

    def test_full_load_constant_rounds(self):
        # Every machine sends k messages and receives k messages.
        k = 16
        net = KMachineNetwork(k)
        msgs = [
            Message(s, (s + j + 1) % k, (s, j), 1)
            for s in range(k)
            for j in range(k - 1)
        ]
        lenzen_route(net, msgs)
        assert net.ledger.rounds <= 12  # O(1), independent of k

    def test_rounds_constant_in_k(self):
        results = {}
        for k in (8, 32):
            net = KMachineNetwork(k)
            msgs = [
                Message(s, (s + j + 1) % k, (s, j), 1)
                for s in range(k)
                for j in range(k - 1)
            ]
            lenzen_route(net, msgs)
            results[k] = net.ledger.rounds
        assert results[32] <= results[8] + 4

    def test_empty(self):
        net = KMachineNetwork(4)
        assert lenzen_route(net, []) == {}

    def test_single_machine(self):
        net = KMachineNetwork(1)
        inbox = lenzen_route(net, [])
        assert inbox == {}


class TestSort:
    def test_exact_balanced_output(self, rng):
        k = 6
        net = KMachineNetwork(k)
        items = [[float(x) for x in rng.random(k)] for _ in range(k)]
        flat = sorted(x for lst in items for x in lst)
        out = lenzen_sort(net, items)
        quota = -(-len(flat) // k)
        for i in range(k):
            assert out[i] == flat[i * quota : (i + 1) * quota]

    def test_handles_duplicates(self):
        k = 4
        net = KMachineNetwork(k)
        items = [[1, 1, 1], [1, 1], [1, 1, 1, 1], [1]]
        out = lenzen_sort(net, items)
        assert sum(len(o) for o in out) == 10
        assert all(x == 1 for o in out for x in o)

    def test_skewed_input(self):
        k = 5
        net = KMachineNetwork(k)
        items = [list(range(20)), [], [], [], []]
        out = lenzen_sort(net, items)
        assert [x for o in out for x in o] == list(range(20))

    def test_empty(self):
        net = KMachineNetwork(3)
        assert lenzen_sort(net, [[], [], []]) == [[], [], []]
        assert net.ledger.rounds == 0

    def test_wrong_arity(self):
        net = KMachineNetwork(3)
        with pytest.raises(ValueError):
            lenzen_sort(net, [[1]])

    def test_constant_rounds_at_full_load(self):
        results = {}
        for k in (8, 24):
            net = KMachineNetwork(k)
            rng = np.random.default_rng(k)
            items = [[float(x) for x in rng.random(k)] for _ in range(k)]
            lenzen_sort(net, items)
            results[k] = net.ledger.rounds
        assert results[24] <= results[8] + 6


@given(st.lists(st.lists(st.integers(0, 100), max_size=6), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_sort_property_permutation_and_order(per_machine):
    """Property: output is the sorted multiset, balanced by quota."""
    k = len(per_machine)
    net = KMachineNetwork(k)
    out = lenzen_sort(net, per_machine)
    flat = sorted(x for lst in per_machine for x in lst)
    got = [x for o in out for x in o]
    assert got == flat
    if flat:
        quota = -(-len(flat) // k)
        assert all(len(o) <= quota for o in out)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 99)),
                max_size=60))
@settings(max_examples=40, deadline=None)
def test_route_property_exact_delivery(msgs_spec):
    """Property: every message arrives at its destination exactly once,
    carrying its original source."""
    k = 6
    net = KMachineNetwork(k)
    msgs = [Message(s, d, ("p", s, d, i), 1)
            for i, (s, d, _x) in enumerate(msgs_spec) if s != d]
    inbox = lenzen_route(net, msgs)
    got = sorted((src, p) for dst, lst in inbox.items() for (src, p) in lst)
    want = sorted((m.src, m.payload) for m in msgs)
    assert got == want
    for dst, lst in inbox.items():
        for src, payload in lst:
            assert payload[2] == dst


@given(st.integers(2, 8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 30)),
                max_size=80))
@settings(max_examples=60, deadline=None)
def test_route_inboxes_arrive_sorted(k, msgs_spec):
    """Property: every inbox comes back in ``(src, repr(payload))`` order,
    with repeated ``(src, dst)`` pairs given in any order, and payloads
    whose ``repr`` order is not their value order."""
    net = KMachineNetwork(k)
    msgs = [Message(s % k, d % k, ("p", x), 1) for s, d, x in msgs_spec if s % k != d % k]
    inbox = lenzen_route(net, msgs)
    for lst in inbox.values():
        assert lst == sorted(lst, key=lambda sp: (sp[0], repr(sp[1])))
    got = sorted((dst, src, p) for dst, lst in inbox.items() for (src, p) in lst)
    assert got == sorted((m.dst, m.src, m.payload) for m in msgs)
