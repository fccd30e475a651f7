"""Failure injection and enforcement-path tests.

The simulator's guard rails must actually fire: space budgets, bandwidth
validation, protocol errors on corrupted inputs, and the Las-Vegas retry
structure of the randomized deletion engine.
"""

import pytest

from repro.core import DynamicMST
from repro.core.init_build import make_states
from repro.errors import (
    BandwidthExceeded,
    InconsistentUpdate,
    ProtocolError,
    SpaceExceeded,
)
from repro.graphs import Update, churn_stream, random_weighted_graph
from repro.sim import KMachineNetwork, Message, random_vertex_partition


class TestSpaceBudgetEnforcement:
    def test_tight_budget_trips(self, rng):
        """A budget below the real requirement raises SpaceExceeded."""
        g = random_weighted_graph(60, 300, rng)
        net = KMachineNetwork(4, machine_budget=10)
        vp = random_vertex_partition(sorted(g.vertices()), 4, rng)
        with pytest.raises(SpaceExceeded):
            make_states(g, vp, net)

    def test_generous_budget_never_trips(self, rng):
        """Running a full stream under budget = 40 * max(k, m/k + Δ)
        never trips — the Theorem 6.1 space guarantee, enforced live."""
        g = random_weighted_graph(80, 400, rng)
        k = 8
        budget = 40 * max(k, g.m // k + g.max_degree())
        net = KMachineNetwork(k, machine_budget=budget)
        vp = random_vertex_partition(sorted(g.vertices()), k, rng)
        dm = DynamicMST(g, k, vp, net, rng=rng)
        from repro.core.init_build import free_init

        _, dm._next_tour_id = free_init(g, vp, dm.states, dm._next_tour_id)
        for batch in churn_stream(dm.shadow.copy(), k, 4, rng=rng):
            dm.apply_batch(batch)
        dm.check()


class TestBandwidthValidation:
    def test_foreign_machine_rejected(self):
        net = KMachineNetwork(4)
        with pytest.raises(BandwidthExceeded):
            net.superstep([Message(0, 7, "x", 1)])


class TestCorruptedInputs:
    def test_mid_stream_invalid_update_leaves_state_usable(self, rng):
        g = random_weighted_graph(20, 40, rng)
        dm = DynamicMST.build(g, 4, rng=rng, init="free")
        with pytest.raises(InconsistentUpdate):
            dm.apply_batch([Update.add(0, 1, 0.1), Update.add(0, 1, 0.2)])
        # Validation happens before any mutation: state still clean.
        dm.check()
        dm.apply_batch([Update.delete(*next(iter(dm.msf_edges())).endpoints)])
        dm.check()

    def test_cut_of_non_mst_edge_raises(self, rng):
        from repro.core.scripts import run_structural_batch

        g = random_weighted_graph(12, 30, rng)
        dm = DynamicMST.build(g, 3, rng=rng, init="free")
        non_mst = next(
            e for e in g.edges() if (e.u, e.v) not in
            {f.endpoints for f in dm.msf_edges()}
        )
        with pytest.raises(ProtocolError):
            run_structural_batch(
                dm.net, dm.vp, dm.states,
                cuts=[non_mst.endpoints], links=[], next_tour_id=10**6,
            )


class TestLasVegasSeeds:
    def test_deletion_correct_across_many_seeds(self):
        """The randomized deletion path is Las-Vegas: any seed, same
        (correct) answer; only the cost may vary."""
        g = random_weighted_graph(30, 120, 7)
        results = set()
        for seed in range(8):
            dm = DynamicMST.build(g, 4, rng=seed, init="free",
                                  engine="sample_gather")
            victims = sorted(dm.msf_edges())[:4]
            dm.apply_batch([Update.delete(*e.endpoints) for e in victims])
            dm.check()
            results.add(tuple(sorted(e.key() for e in dm.msf_edges())))
        assert len(results) == 1  # identical forest regardless of coins
