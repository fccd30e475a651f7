"""Empty fault plan ⇒ the fault layer is provably free.

The hook gates on ``enabled``, so with nothing to inject the network
must take the untouched code path: ledger digests equal, charge
transcripts equal, and recorded JSONL traces *byte-identical* to a run
with no hook at all — on both engines (``REPRO_BACKEND``), with and
without the strict sanitizer (``REPRO_STRICT=1``).
"""

import io

import numpy as np

from repro.core import DynamicMST
from repro.faults import ChaosSession, FaultInjector, FaultPlan
from repro.graphs import Update, random_weighted_graph
from repro.graphs.graph import normalize
from repro.trace.recorder import TraceRecorder


def make_batches(g, n, rng):
    mirror = g.copy()
    batches = []
    for _ in range(3):
        batch = []
        used = set()
        for _ in range(6):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            pair = normalize(u, v)
            if pair in used:
                continue
            used.add(pair)
            if mirror.has_edge(*pair):
                batch.append(Update.delete(*pair))
                mirror.remove_edge(*pair)
            else:
                w = float(rng.random())
                batch.append(Update.add(*pair, w))
                mirror.add_edge(*pair, w)
        batches.append(batch)
    return batches


def run_once(chaosify: bool, n=40, k=4):
    """One traced run; returns (trace bytes, digest, transcript)."""
    rng = np.random.default_rng(17)
    g = random_weighted_graph(n, 90, rng)
    batches = make_batches(g, n, np.random.default_rng(3))
    sink = io.StringIO()
    rec = TraceRecorder(sink, meta={"case": "identity"})
    dm = DynamicMST.build(g, k, rng=0, init="free", trace=rec)
    if chaosify:
        with ChaosSession(dm, FaultPlan()) as chaos:
            for batch in batches:
                chaos.apply(batch)
    else:
        for batch in batches:
            dm.apply(batch)
    dm.check()
    dm.detach_trace()
    rec.close()
    return sink.getvalue(), dm.net.ledger.digest(), list(dm.net.ledger.transcript)


def assert_identity(monkeypatch, **env):
    for key, value in env.items():
        if value is None:
            monkeypatch.delenv(key, raising=False)
        else:
            monkeypatch.setenv(key, value)
    trace_ref, digest_ref, transcript_ref = run_once(chaosify=False)
    trace_chaos, digest_chaos, transcript_chaos = run_once(chaosify=True)
    assert digest_chaos == digest_ref
    assert transcript_chaos == transcript_ref
    assert trace_chaos == trace_ref  # byte-identical JSONL


# REPRO_BACKEND x REPRO_STRICT. "default"/"strict" name the sanitizer
# mode on the reference (scalar) engine; "fast" is the columnar engine.


def test_identity_default_mode(monkeypatch):
    assert_identity(monkeypatch, REPRO_BACKEND="reference", REPRO_STRICT=None)


def test_identity_strict_mode(monkeypatch):
    assert_identity(monkeypatch, REPRO_BACKEND="reference", REPRO_STRICT="1")


def test_identity_fast_path(monkeypatch):
    assert_identity(monkeypatch, REPRO_BACKEND="inproc-columnar", REPRO_STRICT=None)


def test_identity_strict_and_fast(monkeypatch):
    assert_identity(monkeypatch, REPRO_BACKEND="inproc-columnar", REPRO_STRICT="1")


def test_disabled_hook_emits_no_fault_meta(monkeypatch):
    """run_start must not carry a 'faults' key for an empty plan."""
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    rng = np.random.default_rng(17)
    g = random_weighted_graph(30, 60, rng)
    dm = DynamicMST.build(g, 4, rng=0, init="free")
    dm.attach_faults(FaultInjector(FaultPlan()))
    assert "faults" not in dm._trace_meta()
    dm.attach_faults(FaultInjector(FaultPlan(drop=0.5)))
    assert dm._trace_meta()["faults"] is True
