"""FaultInjector semantics at the network layer.

Uses a scripted RNG so every drop/duplicate decision is pinned: the
tests assert exact delivery sets, exact retry charges, and the typed
strict-mode violation for crashed senders.
"""

import pytest

from repro.errors import FaultTimeout, StrictModeViolation
from repro.faults import CrashEvent, FaultInjector, FaultPlan
from repro.sim import KMachineNetwork, Message


class SeqRng:
    """random() pops scripted values; fails loudly if over-consumed."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_net(k=4, strict=False):
    return KMachineNetwork(k, strict=strict)


def attach(net, plan, rng_values=None):
    inj = FaultInjector(plan)
    if rng_values is not None:
        inj.rng = SeqRng(rng_values)
    net.faults = inj
    return inj


class TestEnabledGate:
    def test_empty_plan_disabled(self):
        inj = FaultInjector(FaultPlan())
        assert not inj.enabled

    def test_transport_plan_enabled(self):
        assert FaultInjector(FaultPlan(drop=0.1)).enabled

    def test_crash_only_plan_enabled_only_when_armed_or_down(self):
        plan = FaultPlan(crashes=(CrashEvent(0, 1, superstep=0),))
        inj = FaultInjector(plan)
        assert not inj.enabled
        inj.arm_batch(list(plan.crashes))
        assert inj.enabled
        inj.arm_batch([])
        assert not inj.enabled


class TestDropAndRetry:
    def test_drop_retransmits_and_charges_fault_retry_phase(self):
        net = make_net()
        # draws: msg0 drop -> 0.9 (dropped, p=0.95? no: drop=0.5) ...
        # plan: drop=0.5, dup=0.  draws per msg: [drop]; retry per pending: [drop]
        attach(net, FaultPlan(drop=0.5, max_retries=5),
               rng_values=[0.4, 0.6, 0.9])
        # msg0 dropped (0.4 < 0.5), msg1 delivered (0.6), retry wave
        # redelivers msg0 (0.9).
        inboxes = net.superstep([Message(0, 1, "a", 2), Message(2, 3, "b", 1)])
        assert inboxes == {1: [(0, "a")], 3: [(2, "b")]}
        retry = net.ledger.phases["fault-retry"]
        assert retry.calls == 1
        assert retry.rounds >= 1
        assert retry.words == 2  # only the dropped message rides the wave

    def test_delivery_preserves_send_order(self):
        net = make_net()
        # Both messages to machine 3; the first is dropped then
        # retransmitted — it must still arrive before the second in the
        # inbox (receiver reassembly by send order).
        attach(net, FaultPlan(drop=0.5, max_retries=5),
               rng_values=[0.1, 0.9, 0.9])
        inboxes = net.superstep([Message(0, 3, "first", 1),
                                 Message(1, 3, "second", 1)])
        assert inboxes[3] == [(0, "first"), (1, "second")]

    def test_bounded_retry_times_out(self):
        net = make_net()
        attach(net, FaultPlan(drop=0.5, max_retries=2),
               rng_values=[0.0, 0.0, 0.0])
        with pytest.raises(FaultTimeout, match="2 retransmission"):
            net.superstep([Message(0, 1, "x", 1)])

    def test_retry_waves_counted(self):
        net = make_net()
        inj = attach(net, FaultPlan(drop=0.5, max_retries=8),
                     rng_values=[0.0, 0.0, 0.0, 0.9])
        net.superstep([Message(0, 1, "x", 1)])
        assert inj.counters["retry_waves"] == 3
        assert inj.counters["drop"] == 3


class TestDuplicate:
    def test_duplicate_inflates_charges_not_inboxes(self):
        base = make_net()
        base.superstep([Message(0, 1, "a", 3)])
        clean_words = base.ledger.words

        net = make_net()
        inj = attach(net, FaultPlan(dup=0.5), rng_values=[0.1, 0.9])
        inboxes = net.superstep([Message(0, 1, "a", 3)])
        assert inboxes == {1: [(0, "a")]}  # receiver deduplicates
        assert net.ledger.words == clean_words + 3  # the copy was charged
        assert inj.counters["duplicate"] == 1


class TestReorder:
    def test_reorder_counted_but_absorbed(self):
        net = make_net()
        inj = attach(net, FaultPlan(reorder=0.5),
                     rng_values=[0.1])  # one draw per superstep w/ deliveries
        inboxes = net.superstep([Message(0, 1, "a", 1)])
        assert inboxes == {1: [(0, "a")]}
        assert inj.counters["reorder"] == 1


class TestCrash:
    def test_traffic_to_dead_machine_blackholes(self):
        net = make_net()
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 1),)))
        inj.crash_now(net, 1)
        inboxes = net.superstep([Message(0, 1, "lost", 2),
                                 Message(0, 2, "ok", 1)])
        assert inboxes == {2: [(0, "ok")]}
        assert inj.counters["blackhole"] == 1
        # The black-holed message was still sent, so still charged.
        assert net.ledger.words == 3

    def test_traffic_from_dead_machine_suppressed_permissive(self):
        net = make_net()
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 1),)))
        inj.crash_now(net, 1)
        inboxes = net.superstep([Message(1, 2, "ghost", 5)])
        assert inboxes == {}
        assert inj.counters["suppressed"] == 1
        assert net.ledger.words == 0  # never reached the wire

    def test_traffic_from_dead_machine_strict_typed_violation(self):
        net = make_net(strict=True)
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 1),)))
        inj.crash_now(net, 1)
        with pytest.raises(StrictModeViolation) as exc_info:
            net.superstep([Message(1, 2, "ghost", 1)])
        assert exc_info.value.kind == "machine-crash"
        assert net.strict_violations == 1

    def test_crash_wipes_machine_space_ledger(self):
        net = make_net()
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 2),)))
        net.machines[2].store["blob"] = object()
        net.machines[2].set_gauge("blob", 10)
        assert net.machines[2].peak_words == 10
        inj.crash_now(net, 2)
        assert net.machines[2].peak_words == 0
        assert net.machines[2].space_words == 0
        assert len(net.machines[2].store) == 0

    def test_crash_and_restart_idempotent(self):
        net = make_net()
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 1),)))
        inj.crash_now(net, 1)
        inj.crash_now(net, 1)
        assert inj.counters["crashes"] == 1
        inj.restart(net, 1)
        inj.restart(net, 1)
        assert inj.crashed == set()

    def test_crash_rejects_bad_machine_id(self):
        net = make_net()
        inj = attach(net, FaultPlan())
        with pytest.raises(ValueError):
            inj.crash_now(net, 99)

    def test_on_crash_callback_fires(self):
        net = make_net()
        inj = attach(net, FaultPlan())
        wiped = []
        inj.on_crash = wiped.append
        inj.crash_now(net, 3)
        assert wiped == [3]


class TestMidBatchArming:
    def test_armed_event_fires_at_scheduled_superstep(self):
        net = make_net()
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 1, superstep=1),)))
        inj.arm_batch([inj.plan.crashes[0]])
        net.superstep([Message(0, 2, "s0", 1)])  # step 0: not yet
        assert inj.crashed == set()
        net.superstep([Message(0, 2, "s1", 1)])  # step 1: fires
        assert inj.crashed == {1}

    def test_rearming_disarms_unfired_events(self):
        net = make_net()
        inj = attach(net, FaultPlan(crashes=(CrashEvent(0, 1, superstep=99),)))
        inj.arm_batch([inj.plan.crashes[0]])
        net.superstep([Message(0, 2, "x", 1)])
        inj.arm_batch([])
        assert not inj.enabled
        assert inj.crashed == set()


class TestColumnarDelegation:
    def test_closed_form_materializes_under_faults(self):
        """With a hook enabled, the columnar engine's fan-out and
        point-to-point supersteps hand the injector the reference
        engine's message list, in its order, and charge the same."""
        seen = {}
        for fast in (True, False):
            net = KMachineNetwork(4, fast=fast)
            inj = attach(net, FaultPlan(dup=0.5), rng_values=[0.9] * 7)
            intercept, steps = inj.intercept, []

            def spy(messages, n, intercept=intercept, steps=steps):
                steps.append([(m.src, m.dst, m.payload, m.words) for m in messages])
                return intercept(messages, n)

            inj.intercept = spy
            net.fanout([(1, "a", 2), (0, "b", 1)])
            net.point_to_point([(0, 1, "p", 2)])
            assert inj.rng.values == []
            seen[fast] = (steps, net.ledger.transcript)
        assert seen[True] == seen[False]
        assert seen[True][0] == [
            [(1, 0, "a", 2), (1, 2, "a", 2), (1, 3, "a", 2),
             (0, 1, "b", 1), (0, 2, "b", 1), (0, 3, "b", 1)],
            [(0, 1, "p", 2)],
        ]
