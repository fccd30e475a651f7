"""Initialisation fast path IS the reference initialisation, observably.

The columnar initialisers (:mod:`repro.perf.init_columnar`) and the
contracted-clique engine kernels (:mod:`repro.perf.cclique_columnar`)
carry the same contract as the update fast path: byte-identical
round/message/word transcripts (hence SHA-256 ledger digests), identical
MSF output, identical machine state — under ``REPRO_STRICT=1``, across
seeds and machine counts.  These tests pin that contract for

* :func:`repro.core.init_build.distributed_init` (Theorem 5.8),
* :func:`repro.mpc.init_mpc.mpc_init` (Theorem 8.1),
* every engine in :data:`repro.cclique.ENGINES`,

plus unit-level oracles for the kernels the fast initialisers stand on
(:class:`ArrayDSU`, :func:`min_outgoing_rows`,
:func:`cc_local_msf_columnar`).
"""

import numpy as np
import pytest

from repro.cclique import CCEdge, ENGINES, cc_msf
from repro.core import DynamicMST
from repro.graphs import kruskal_msf, random_weighted_graph
from repro.graphs.dsu import DisjointSet
from repro.graphs.mst import msf_key_multiset
from repro.mpc import MPCDynamicMST
from repro.perf.cclique_columnar import cc_local_msf_columnar
from repro.perf.config import VECTOR_MIN_ROWS
from repro.perf.init_columnar import ArrayDSU, GraphEdgeTable, min_outgoing_rows
from repro.sim import KMachineNetwork

ALL_ENGINES = sorted(ENGINES)


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")


def _machine_fingerprint(st):
    # MST labels, witnesses, tour ids, tour sizes and graph edges, read
    # through the state seam so both storages answer the same call.
    return st.record()


def _init_run(builder, graph, k, seed, backend, **build_kw):
    """Build (measured init) only — no update batches; init is the subject."""
    dm = builder(graph, k, rng=np.random.default_rng(seed), backend=backend,
                 **build_kw)
    dm.check()
    return {
        "transcript": list(dm.net.ledger.transcript),
        "digest": dm.net.ledger.digest(),
        "init_rounds": dm.init_rounds,
        "msf": msf_key_multiset(dm.msf_edges()),
        "weight": round(dm.total_weight(), 9),
        "machines": [_machine_fingerprint(st) for st in dm.states],
        "violations": dm.net.strict_violations,
    }


def _assert_equivalent(ref, fast):
    assert fast["violations"] == ref["violations"] == 0
    assert fast["transcript"] == ref["transcript"]
    assert fast["digest"] == ref["digest"]
    assert fast["msf"] == ref["msf"]
    assert fast["weight"] == ref["weight"]
    for m, (a, b) in enumerate(zip(ref["machines"], fast["machines"])):
        assert a == b, f"machine {m} state diverged"


class TestDistributedInit:
    """Theorem 5.8: Borůvka + batched Euler build, fast vs reference."""

    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_init_transcripts_identical(self, seed, k):
        rng = np.random.default_rng(100 * seed + k)
        n = int(rng.integers(20, 90))
        m = int(rng.integers(n, 3 * n))
        g = random_weighted_graph(n, m, rng, connected=False)
        ref = _init_run(DynamicMST.build, g, k, seed, backend="reference",
                        init="distributed")
        fst = _init_run(DynamicMST.build, g, k, seed, backend="inproc-columnar",
                        init="distributed")
        assert ref["init_rounds"] == fst["init_rounds"] > 0
        _assert_equivalent(ref, fst)

    def test_disconnected_graph(self):
        # Borůvka must stall out cleanly (no chosen edges) in both paths.
        rng = np.random.default_rng(5)
        g = random_weighted_graph(40, 30, rng, connected=False)
        ref = _init_run(DynamicMST.build, g, 4, 5, backend="reference",
                        init="distributed")
        fst = _init_run(DynamicMST.build, g, 4, 5, backend="inproc-columnar",
                        init="distributed")
        _assert_equivalent(ref, fst)


class TestMPCInit:
    """Theorem 8.1: CV-star Borůvka under the MPC cost rule."""

    @pytest.mark.parametrize("k", [2, 4, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_init_transcripts_identical(self, seed, k):
        rng = np.random.default_rng(100 * seed + k)
        n = int(rng.integers(16, 60))
        m = int(rng.integers(n, 2 * n))
        g = random_weighted_graph(n, m, rng, connected=False)
        ref = _init_run(MPCDynamicMST.build, g, k, seed, backend="reference")
        fst = _init_run(MPCDynamicMST.build, g, k, seed, backend="inproc-columnar")
        _assert_equivalent(ref, fst)


def _cc_instance(seed, k, min_local=0):
    """Deterministic contracted-clique instance; optionally dense enough
    per machine to clear the vectorize/loop crossover."""
    rng = np.random.default_rng(seed)
    nv = k + 1
    m = nv * (nv - 1) // 2
    g = random_weighted_graph(nv, m, rng, connected=False)
    local = [[] for _ in range(k)]
    for e in g.edges():
        local[int(rng.integers(0, k))].append(CCEdge.make(e.u, e.v, e.key()))
    if min_local:
        # Pile duplicates on machine 0 (§6.2 step 7 duplicates edges
        # anyway) until its list clears the columnar crossover.
        base = [e for lst in local for e in lst]
        while base and len(local[0]) < min_local:
            local[0].extend(base[: min_local - len(local[0])])
    want = sorted((e.key(), *sorted((e.u, e.v))) for e in kruskal_msf(g))
    return nv, local, want


def _cc_run(engine, nv, local, k, seed, fast):
    net = KMachineNetwork(k, fast=fast)
    got = cc_msf(net, nv, [list(lst) for lst in local], engine=engine,
                 rng=np.random.default_rng(seed))
    return {
        "msf": [(e.key, e.cu, e.cv) for e in got],
        "transcript": list(net.ledger.transcript),
        "digest": net.ledger.digest(),
        "violations": net.strict_violations,
    }


class TestCCliqueEngines:
    """Every contracted-clique engine, fast vs reference, same wire."""

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("k", [3, 6, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_engine_transcripts_identical(self, engine, seed, k):
        nv, local, want = _cc_instance(100 * seed + k, k)
        ref = _cc_run(engine, nv, local, k, seed, fast=False)
        fst = _cc_run(engine, nv, local, k, seed, fast=True)
        assert ref["violations"] == fst["violations"] == 0
        assert fst["msf"] == ref["msf"]
        assert fst["transcript"] == ref["transcript"]
        assert fst["digest"] == ref["digest"]
        assert sorted(ref["msf"]) == want

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_dense_local_lists_cross_the_vector_threshold(self, engine):
        # Force the cc_local_msf columnar kernel to actually engage
        # (lists >= VECTOR_MIN_ROWS), duplicates included.
        k = 12
        nv, local, _ = _cc_instance(7, k, min_local=VECTOR_MIN_ROWS + 8)
        assert len(local[0]) >= VECTOR_MIN_ROWS
        ref = _cc_run(engine, nv, local, k, 7, fast=False)
        fst = _cc_run(engine, nv, local, k, 7, fast=True)
        assert fst["msf"] == ref["msf"]
        assert fst["transcript"] == ref["transcript"]
        assert fst["digest"] == ref["digest"]


class TestArrayDSU:
    """ArrayDSU must answer exactly like the reference DisjointSet."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_disjoint_set(self, seed):
        rng = np.random.default_rng(seed)
        ids = sorted(rng.choice(500, size=40, replace=False).tolist())
        arr = ArrayDSU(np.asarray(ids, dtype=np.int64))
        ref = DisjointSet(ids)
        for _ in range(150):
            x, y = rng.choice(ids, size=2).tolist()
            assert arr.union(x, y) == ref.union(x, y)
            assert arr.find(x) == ref.find(x)
            assert arr.find(y) == ref.find(y)
        roots = arr.root_indices()
        for i, x in enumerate(ids):
            assert ids[int(roots[i])] == ref.find(x)

    def test_union_tie_break_first_argument_wins(self):
        # Equal sizes: the first argument's root must win, like DisjointSet.
        arr = ArrayDSU(np.asarray([3, 8], dtype=np.int64))
        ref = DisjointSet([3, 8])
        assert arr.union(8, 3) == ref.union(8, 3)
        assert arr.find(3) == ref.find(3) == 8


class TestMinOutgoingRows:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_candidate_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        ids = np.arange(n, dtype=np.int64)
        edges = {}
        for _ in range(120):
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u != v and (u, v) not in edges:
                edges[(u, v)] = float(rng.random())
        comp = rng.integers(0, 6, size=n)
        reps = np.full(6, n, dtype=np.int64)
        np.minimum.at(reps, comp, np.arange(n))
        roots = reps[comp]

        best = {}
        for (u, v), w in edges.items():
            ru, rv = int(roots[u]), int(roots[v])
            if ru == rv:
                continue
            cand = ((w, u, v), u, v)
            for r in (ru, rv):
                if r not in best or cand < best[r]:
                    best[r] = cand

        table = GraphEdgeTable(edges, ids)
        comps, rows = min_outgoing_rows(table, roots)
        got = {
            int(c): ((float(table.w[r]), int(table.u[r]), int(table.v[r])),
                     int(table.u[r]), int(table.v[r]))
            for c, r in zip(comps, rows)
        }
        assert got == best
        assert comps.tolist() == sorted(got)

    def test_fully_merged_returns_empty(self):
        ids = np.arange(4, dtype=np.int64)
        table = GraphEdgeTable({(0, 1): 0.5, (2, 3): 0.25}, ids)
        comps, rows = min_outgoing_rows(table, np.zeros(4, dtype=np.int64))
        assert comps.size == rows.size == 0


class TestCCLocalMSFColumnar:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_cycle_deletion(self, seed):
        rng = np.random.default_rng(seed)
        nv = int(rng.integers(3, 20))
        edges = []
        for _ in range(int(rng.integers(0, 4 * nv))):
            u, v = rng.integers(0, nv, size=2).tolist()
            if u != v:
                edges.append(CCEdge.make(u, v, (float(rng.random()), u, v)))
        # Duplicates are normal input (§6.2 sends edges to both endpoints).
        edges += edges[: len(edges) // 3]

        dsu = DisjointSet()
        want = []
        for e in sorted(edges):
            if dsu.union(e.cu, e.cv):
                want.append(e)
        assert cc_local_msf_columnar(edges) == want

    def test_empty_input(self):
        assert cc_local_msf_columnar([]) == []


class TestDuplicateRankStability:
    """Regression: the selected-edge reorder in the columnar local MSF
    must be a *stable* sort (simlint SIM006).

    The §6.2 reduction ships each contracted edge to both endpoint
    machines, so merged lists carry exact duplicates; tied weights make
    the sort-rank assignment itself depend on stability.  These inputs
    are adversarial on both axes and must still reproduce the scalar
    scan's objects, order, and wire.
    """

    def _duplicate_heavy_edges(self, seed, n_base=None):
        rng = np.random.default_rng(seed)
        nv = 24
        n_base = n_base or (VECTOR_MIN_ROWS * 2)
        edges = []
        while len(edges) < n_base:
            u, v = rng.integers(0, nv, size=2).tolist()
            if u != v:
                # Two distinct weights only: almost every comparison ties
                # on the leading key component.
                w = 0.25 if rng.random() < 0.5 else 0.5
                edges.append(CCEdge.make(u, v, (w, u, v)))
        # Exact duplicates, interleaved at random positions.
        dupes = [edges[int(i)] for i in rng.integers(0, len(edges), size=len(edges))]
        merged = edges + dupes
        rng.shuffle(merged)
        return merged

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_matches_scalar_object_for_object(self, seed):
        edges = self._duplicate_heavy_edges(seed)
        dsu = DisjointSet()
        want = [e for e in sorted(edges) if dsu.union(e.cu, e.cv)]
        got = cc_local_msf_columnar(edges)
        assert got == want
        # Same *objects*, not just equal values: the scalar scan keeps
        # the first duplicate in sorted order, so must the kernel.
        assert all(g is w for g, w in zip(got, want))

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_engine_transcript_identical_with_duplicates(self, engine):
        k = 4
        edges = self._duplicate_heavy_edges(99, n_base=VECTOR_MIN_ROWS * 3)
        local = [edges[m::k] for m in range(k)]
        runs = {}
        for fast in (False, True):
            net = KMachineNetwork(k, fast=fast)
            got = cc_msf(net, 24, [list(part) for part in local],
                         engine=engine, rng=np.random.default_rng(7))
            runs[fast] = (
                [(e.key, e.cu, e.cv) for e in got],
                list(net.ledger.transcript),
                net.ledger.digest(),
            )
        assert runs[True] == runs[False]
