"""The fast path IS the reference path, observably.

The columnar engine's contract (ISSUE: headline criterion) is not
"approximately the same answer" — it is byte-identical round/message/
word ledgers and identical MST state.  These tests run the same update
trajectory through both engines under ``REPRO_STRICT=1`` and compare:

* the full charge transcript (hence the SHA-256 digest);
* the MSF key multiset and total weight;
* every machine's internal Euler state — MST labels, witnesses, tour
  ids, tour sizes, graph edges — as each storage's ``record()`` reports
  it (dicts on the reference engine, resident fleet columns on the
  columnar one);
* the checker's verdict.
"""

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph
from repro.graphs.mst import msf_key_multiset
from repro.mpc import MPCDynamicMST


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")


def _machine_fingerprint(st):
    """Everything a machine knows, as comparable plain data."""
    return st.record()


def _run(builder, graph, stream, k, seed, backend, init="free"):
    dm = builder(graph, k, rng=np.random.default_rng(seed), init=init,
                 backend=backend)
    for batch in stream:
        dm.apply_batch(batch)
    dm.check()
    return {
        "transcript": list(dm.net.ledger.transcript),
        "digest": dm.net.ledger.digest(),
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


class TestKMachine:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_trajectories(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 60))
        m = int(rng.integers(n, 3 * n))
        k = int(rng.integers(2, 9))
        batch = int(rng.integers(1, 2 * k + 1))
        g = random_weighted_graph(n, m, rng, connected=False)
        stream = list(churn_stream(g.copy(), batch, 5, rng=rng))
        ref = _run(DynamicMST.build, g, stream, k, seed, backend="reference")
        fst = _run(DynamicMST.build, g, stream, k, seed, backend="inproc-columnar")
        _assert_equivalent(ref, fst)

    def test_large_batches_exercise_long_scripts(self):
        # Long cut/link scripts are where the columnar transforms cascade;
        # batch >> k makes each structural script many steps deep.
        rng = np.random.default_rng(3)
        g = random_weighted_graph(80, 200, rng)
        stream = list(churn_stream(g.copy(), 24, 4, rng=rng))
        ref = _run(DynamicMST.build, g, stream, 4, 3, backend="reference")
        fst = _run(DynamicMST.build, g, stream, 4, 3, backend="inproc-columnar")
        _assert_equivalent(ref, fst)

    @pytest.mark.parametrize("seed", range(3))
    def test_distributed_init_trajectories(self, seed):
        # Theorem 5.8 init drives run_structural_batch before any batch:
        # vertices then have tour ids but no witness entries yet, so this
        # covers the sparse-witness pack the free init never exercises.
        rng = np.random.default_rng(seed)
        g = random_weighted_graph(24, 60, rng, connected=False)
        stream = list(churn_stream(g.copy(), 6, 3, rng=rng))
        ref = _run(DynamicMST.build, g, stream, 4, seed, backend="reference",
                   init="distributed")
        fst = _run(DynamicMST.build, g, stream, 4, seed, backend="inproc-columnar",
                   init="distributed")
        _assert_equivalent(ref, fst)

    def test_fast_pin_beats_ambient_override(self, monkeypatch):
        # A backend named at build outranks REPRO_BACKEND, for the whole
        # life of the instance: storage, init and every batch.
        g = random_weighted_graph(20, 40, np.random.default_rng(0))
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        dm = DynamicMST.build(g, 4, rng=np.random.default_rng(0),
                              init="free", backend="inproc-columnar")
        for batch in churn_stream(g.copy(), 4, 3,
                                  rng=np.random.default_rng(0)):
            dm.apply_batch(batch)
        dm.check()
        assert dm.fast is True
        assert all(hasattr(st, "fleet") for st in dm.states)


class TestMPC:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_trajectories(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        m = int(rng.integers(n, 2 * n))
        k = int(rng.integers(2, 6))
        g = random_weighted_graph(n, m, rng, connected=False)
        stream = list(churn_stream(g.copy(), 4, 4, rng=rng))
        ref = _run(MPCDynamicMST.build, g, stream, k, seed, backend="reference")
        fst = _run(MPCDynamicMST.build, g, stream, k, seed, backend="inproc-columnar")
        _assert_equivalent(ref, fst)
