"""Cross-backend equivalence: reference against columnar.

Both execution backends — the scalar ``reference`` engine and the NumPy
``inproc-columnar`` engine — must produce **byte-identical ledgers,
digests and MSFs** on the same workload, under ``REPRO_STRICT=1``,
across seeds and machine counts k ∈ {4, 8, 16}.
"""

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph
from repro.graphs.mst import msf_key_multiset

BACKENDS = ("reference", "inproc-columnar")


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")


def _workload(seed, n, k, batch, n_batches=3):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, 3 * n, rng, connected=False)
    stream = list(churn_stream(g.copy(), batch, n_batches, rng=rng))
    return g, stream


def _run(g, stream, k, seed, backend):
    dm = DynamicMST.build(g, k, rng=np.random.default_rng(seed),
                          init="distributed", backend=backend)
    for batch in stream:
        dm.apply_batch(batch)
    dm.check()
    return {
        "transcript": list(dm.net.ledger.transcript),
        "digest": dm.net.ledger.digest(),
        "msf": msf_key_multiset(dm.msf_edges()),
        "weight": round(dm.total_weight(), 9),
        "violations": dm.net.strict_violations,
    }


@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_reference_and_columnar_byte_identical(k, seed):
    g, stream = _workload(seed, n=12 * k // 2 + 30, k=k, batch=k)
    ref, col = (_run(g, stream, k, seed, name) for name in BACKENDS)
    assert ref["violations"] == 0 and col["violations"] == 0
    assert col["transcript"] == ref["transcript"]
    assert col["digest"] == ref["digest"]
    assert col["msf"] == ref["msf"]
    assert col["weight"] == ref["weight"]


def test_reference_trace_digest_matches_columnar(tmp_path):
    """Traced runs charge the same ledger under either engine (the trace
    files themselves differ only in their engine tags, by design)."""
    from repro.trace.scenarios import Scenario, run_traced

    scenario = Scenario("t-eq", n=60, k=4, batch=6, n_batches=3, seed=2)
    digests = {
        name: run_traced(scenario, str(tmp_path / f"{name}.jsonl"),
                         backend=name)["digest"]
        for name in BACKENDS
    }
    assert digests["reference"] == digests["inproc-columnar"]


def test_distributed_init_across_backends():
    """Theorem 5.8 init charges the same ledger under both engines."""
    seed, k = 3, 4
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(30, 90, rng, connected=False)
    stream = list(churn_stream(g.copy(), 4, 2, rng=rng))
    ref, col = (_run(g, stream, k, seed, name) for name in BACKENDS)
    assert ref["digest"] == col["digest"]


def test_chaos_equivalence_across_backends():
    """Fault injection is engine-independent: the same seeded chaos run
    ends on the oracle forest with the same cost under both engines."""
    from repro.faults import CrashEvent, FaultPlan, run_chaos
    from repro.trace.scenarios import Scenario

    scenario = Scenario("t-chaos", n=40, k=4, batch=4, n_batches=3, seed=4)
    plan = FaultPlan(seed=5, drop=0.02, dup=0.01,
                     crashes=(CrashEvent(batch=1, machine=2),))
    ref, col = (run_chaos(scenario, plan, checkpoint_every=2, backend=name)
                for name in BACKENDS)
    assert ref["ok"] and col["ok"]
    assert col["msf_weight"] == ref["msf_weight"]
    assert col["rounds"] == ref["rounds"]
    assert col["faults"] == ref["faults"]
