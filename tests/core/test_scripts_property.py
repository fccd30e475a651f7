"""Property test: the Lemma 5.9 script engines against each other.

Hypothesis drives random cut/link batches on random forests through the
reference engine (dict storage, one step at a time) and the columnar
engine (fleet columns, one composed pass per phase) side by side.  After
every batch both must pass the consistency checker (walk validity and
replica agreement against the shadow graph) and hold the same state on
every machine, as :meth:`~repro.core.state.MachineStateBase.record`
reports it, after charging the same ledger.  k reaches 16, so a phase is
as deep as the benchmark's 64-update batches make it; the deterministic
cases pin the step rules a composed phase must still apply one step at
a time: a vertex losing three edges in one phase, a leaf cut off, and a
root whose only edge is cut.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checker import check_global_consistency
from repro.core.init_build import free_init, make_states
from repro.core.scripts import _repair_witnesses, run_structural_batch
from repro.graphs import WeightedGraph, random_forest
from repro.graphs.dsu import DisjointSet
from repro.sim import KMachineNetwork, random_vertex_partition


class _Engines:
    """The same partitioned forest installed on both engines."""

    def __init__(self, g: WeightedGraph, k: int, seed: int) -> None:
        self.shadow = g.copy()
        self.runs = []
        for fast in (False, True):
            rng = np.random.default_rng(seed)
            net = KMachineNetwork(k, fast=fast)
            vp = random_vertex_partition(sorted(g.vertices()), k, rng)
            states, tid = make_states(g, vp, net)
            _, tid = free_init(g, vp, states, tid)
            self.runs.append([net, vp, states, tid])

    def batch(self, cuts, links) -> None:
        for (u, v) in cuts:
            self.shadow.remove_edge(u, v)
        for (u, v, w) in links:
            self.shadow.add_edge(u, v, w)
        for run in self.runs:
            net, vp, states, tid = run
            for (u, v) in cuts:
                for s in states:
                    s.drop_graph_edge(u, v)
            for (u, v, w) in links:
                for s in states:
                    if u in s.vertices or v in s.vertices:
                        s.store_graph_edge(u, v, w)
            run[3] = run_structural_batch(net, vp, states, cuts=cuts, links=links,
                                          next_tour_id=tid)
            # New graph edges entail witness acquisition for their
            # endpoints, exactly as batch_add broadcasts for A-vertices.
            endpoints = [x for (u, v, _w) in links for x in (u, v)]
            if endpoints:
                _repair_witnesses(net, vp, states, endpoints)
            check_global_consistency(states, self.shadow, vp)
        (ref_net, _, ref, _), (fast_net, _, fast, _) = self.runs
        for m, (a, b) in enumerate(zip(ref, fast)):
            assert a.record() == b.record(), f"machine {m} state diverged"
        assert ref_net.ledger.digest() == fast_net.ledger.digest()


def _forest_links(shadow, rng, n, limit):
    """Up to ``limit`` random links between distinct components."""
    dsu = DisjointSet(shadow.vertices())
    for e in shadow.edges():
        dsu.union(e.u, e.v)
    links = []
    for t in rng.permutation(n * n)[: 4 * n]:
        u, v = int(t) // n, int(t) % n
        if u >= v or shadow.has_edge(u, v):
            continue
        if dsu.union(u, v):
            links.append((u, v, float(rng.random())))
        if len(links) >= limit:
            break
    return links


@st.composite
def structural_scenario(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 60))
    k = draw(st.integers(2, 16))
    n_rounds = draw(st.integers(1, 4))
    return seed, n, k, n_rounds


@given(structural_scenario())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_structural_batches_stay_consistent(scenario):
    seed, n, k, n_rounds = scenario
    rng = np.random.default_rng(seed)
    g = random_forest(n, max(1, n // 6), rng)
    eng = _Engines(g, k, seed)
    for _ in range(n_rounds):
        # Cut some forest edges, then link cycle-free replacements.
        edges = sorted(e.endpoints for e in eng.shadow.edges())
        rng.shuffle(edges)
        cuts = edges[: int(rng.integers(0, min(len(edges), k) + 1))]
        shadow = eng.shadow.copy()
        for (u, v) in cuts:
            shadow.remove_edge(u, v)
        eng.batch(cuts, _forest_links(shadow, rng, n, k))


# Tree 0-1, 1-2, 1-3, 1-4, 4-5, 5-6 rooted at 0 (its minimum vertex).
_TREE = [(0, 1, 0.1), (1, 2, 0.2), (1, 3, 0.3), (1, 4, 0.4), (4, 5, 0.5), (5, 6, 0.6)]


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestStepRules:
    def test_vertex_loses_three_edges_in_one_phase(self, k, seed):
        eng = _Engines(WeightedGraph.from_edges(_TREE), k, seed)
        eng.batch([(1, 2), (1, 3), (1, 4)], [])
        eng.batch([], [(2, 3, 0.7), (0, 4, 0.8), (3, 6, 0.9)])

    def test_leaf_cut_off(self, k, seed):
        eng = _Engines(WeightedGraph.from_edges(_TREE), k, seed)
        eng.batch([(5, 6)], [])
        eng.batch([(1, 2)], [(2, 6, 0.7)])

    def test_root_loses_its_only_edge(self, k, seed):
        eng = _Engines(WeightedGraph.from_edges(_TREE), k, seed)
        eng.batch([(0, 1), (4, 5)], [])
        eng.batch([], [(0, 5, 0.7), (2, 6, 0.8)])
