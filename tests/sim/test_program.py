"""Message-driven programs: the reactive execution model.

The flagship test re-implements distributed Borůvka as autonomous
per-machine programs (no coordinator, no shared state) and checks it
computes the reference MSF — evidence the coordinator-style protocols in
repro.core decompose into real per-machine code.
"""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.graphs import kruskal_msf, random_weighted_graph
from repro.graphs.dsu import DisjointSet
from repro.graphs.mst import msf_key_multiset
from repro.sim import KMachineNetwork, random_vertex_partition
from repro.sim.program import MachineProgram, run_programs


class EchoProgram(MachineProgram):
    """Round 1: everyone broadcasts its id; round 2: collect and stop."""

    def on_start(self):
        return self.broadcast(("id", self.mid), 1)

    def on_round(self, inbox):
        self.state.setdefault("heard", set()).update(src for src, _ in inbox)
        if len(self.state["heard"]) >= self.k - 1:
            return None
        return []


class TestRunner:
    def test_echo_quiesces(self):
        net = KMachineNetwork(5)
        programs = [EchoProgram(i, 5) for i in range(5)]
        steps = run_programs(net, programs)
        assert steps <= 3
        for p in programs:
            assert p.state["heard"] == set(range(5)) - {p.mid}

    def test_livelock_detected(self):
        class Chatter(MachineProgram):
            def on_start(self):
                return self.broadcast(("hi",), 1)

            def on_round(self, inbox):
                return self.broadcast(("hi",), 1)  # never stops

        net = KMachineNetwork(3)
        with pytest.raises(ProtocolError):
            run_programs(net, [Chatter(i, 3) for i in range(3)], max_rounds=20)

    def test_wrong_program_count(self):
        net = KMachineNetwork(3)
        with pytest.raises(ProtocolError):
            run_programs(net, [EchoProgram(0, 3)])


class BoruvkaProgram(MachineProgram):
    """Fully message-driven Borůvka over the random vertex partition.

    Protocol per phase (all state machine-local):
    1. every machine broadcasts its best outgoing candidate per component
       (componnet map replicated via the decisions heard so far);
    2. on receiving all candidates, each machine deterministically merges
       the winning edges into its local DSU copy and starts the next
       phase; quiesce when a phase yields no merge anywhere.
    """

    def on_start(self):
        self.state["dsu"] = DisjointSet(self.state["all_vertices"])
        self.state["msf"] = set()
        self.state["phase"] = 0
        return self._propose()

    def _propose(self):
        dsu = self.state["dsu"]
        best = {}
        for (u, v), w in self.state["edges"].items():
            ru, rv = dsu.find(u), dsu.find(v)
            if ru == rv:
                continue
            cand = ((w, u, v), u, v)
            for r in (ru, rv):
                if r not in best or cand < best[r]:
                    best[r] = cand
        payload = ("cand", self.state["phase"], sorted(best.values()))
        return self.broadcast(payload, max(1, 3 * len(best)))

    def on_round(self, inbox):
        got = self.state.setdefault("got", [])
        got.extend(p for _src, p in inbox if p[0] == "cand")
        mine = [p for p in got if p[1] == self.state["phase"]]
        if len(mine) < self.k - 1:
            return []  # wait for the stragglers of this phase
        # Merge deterministically: per phase-start component, the GLOBAL
        # minimum over everyone's local proposals (a locally-min edge that
        # is not the component's true minimum must not be added).
        dsu = self.state["dsu"]
        merged = False
        all_cands = sorted(
            {tuple(c) for p in mine for c in map(tuple, p[2])}
            | {tuple(c) for c in self._own_cands()}
        )
        winners = {}
        for cand in all_cands:
            (key, u, v) = cand
            for r in (dsu.find(u), dsu.find(v)):
                if r not in winners or cand < winners[r]:
                    winners[r] = cand
        for (key, u, v) in sorted(set(winners.values())):
            if dsu.union(u, v):
                self.state["msf"].add((key[0], u, v))
                merged = True
        self.state["got"] = [p for p in got if p[1] > self.state["phase"]]
        if not merged:
            return None
        self.state["phase"] += 1
        return self._propose()

    def _own_cands(self):
        dsu = self.state["dsu"]
        best = {}
        for (u, v), w in self.state["edges"].items():
            ru, rv = dsu.find(u), dsu.find(v)
            if ru == rv:
                continue
            cand = ((w, u, v), u, v)
            for r in (ru, rv):
                if r not in best or cand < best[r]:
                    best[r] = cand
        return sorted(best.values())


class TestMessageDrivenBoruvka:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_msf(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        k = int(rng.integers(2, 6))
        g = random_weighted_graph(n, m, rng, connected=False)
        vp = random_vertex_partition(sorted(g.vertices()), k, rng)
        net = KMachineNetwork(k)
        programs = []
        for mid in range(k):
            edges = {
                (e.u, e.v): e.weight
                for e in g.edges()
                if mid in vp.edge_machines(e.u, e.v)
            }
            programs.append(BoruvkaProgram(mid, k, {
                "edges": edges, "all_vertices": sorted(g.vertices()),
            }))
        run_programs(net, programs)
        want = msf_key_multiset(kruskal_msf(g))
        for p in programs:
            got = sorted((w, u, v) for (w, u, v) in p.state["msf"])
            assert got == want  # every machine agrees on the whole MSF

    def test_rounds_comparable_to_coordinator_style(self):
        """The reactive Borůvka should land in the same cost regime as
        the coordinator-style distributed_init (within a small factor)."""
        rng = np.random.default_rng(7)
        g = random_weighted_graph(120, 360, rng)
        k = 8
        vp = random_vertex_partition(sorted(g.vertices()), k, rng)
        net = KMachineNetwork(k)
        programs = []
        for mid in range(k):
            edges = {
                (e.u, e.v): e.weight
                for e in g.edges()
                if mid in vp.edge_machines(e.u, e.v)
            }
            programs.append(BoruvkaProgram(mid, k, {
                "edges": edges, "all_vertices": sorted(g.vertices()),
            }))
        run_programs(net, programs)
        reactive = net.ledger.rounds

        from repro.core.init_build import distributed_init, make_states

        net2 = KMachineNetwork(k)
        states, tid = make_states(g, vp, net2)
        distributed_init(net2, vp, states, sorted(g.vertices()), tid)
        coordinator = net2.ledger.rounds
        # The naive reactive version broadcasts whole candidate lists, so
        # it costs more — but the same order of magnitude.
        assert reactive < 40 * coordinator
