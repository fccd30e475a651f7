"""Drive a named scenario through a fault plan, checked per batch.

Shared by ``repro chaos`` and the benchmark harness's ``--faults``
trajectory: one function that builds the scenario's workload, runs it
under a :class:`~repro.faults.session.ChaosSession`, and cross-checks
the maintained forest against the sequential Kruskal oracle after every
batch — the acceptance criterion of the fault model ("under any seeded
fault plan the forest matches the oracle after every batch").
"""

from __future__ import annotations

from typing import IO, Any, Dict, List, Optional, Union

from repro.faults.plan import FaultPlan
from repro.faults.session import ChaosSession


def run_chaos(
    scenario: Any,
    plan: FaultPlan,
    checkpoint_every: Optional[int] = 2,
    engine: str = "sample_gather",
    sink: Optional[Union[str, IO[str]]] = None,
    backend: Optional[str] = None,
    telemetry: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run ``scenario``'s churn workload under ``plan``; return a summary.

    ``scenario`` is a :class:`repro.trace.scenarios.Scenario` (duck-typed:
    ``n``/``m``/``k``/``batch``/``n_batches``/``seed``/``init``).  When
    ``sink`` is given, a trace recorder rides the whole run, so fault,
    checkpoint and recovery events land in the JSONL stream.
    ``backend`` pins an execution backend by name (falls back to the
    scenario's ``backend`` field, then the ambient default).  The plane
    path routes per-message while a fault hook is enabled, so injection
    stays seeded-deterministic under either backend.
    ``telemetry`` is an extra :class:`~repro.sim.metrics.TraceSink`
    (typically a :class:`repro.obs.BusSink`) teed alongside the file
    recorder; teeing never changes file bytes or ledger digests.

    The summary's ``ok`` is True iff the maintained forest weight and
    edge multiset matched the oracle after *every* batch and the final
    full consistency check passed.
    """
    import numpy as np

    from repro.core import DynamicMST
    from repro.graphs import churn_stream, random_weighted_graph
    from repro.graphs.mst import kruskal_msf, msf_key_multiset, msf_weight
    from repro.trace.recorder import TraceRecorder

    rng = np.random.default_rng(scenario.seed)
    graph = random_weighted_graph(scenario.n, scenario.m, rng)
    stream = list(
        churn_stream(graph.copy(), scenario.batch, scenario.n_batches, rng=rng)
    )
    plan.validate_machines(scenario.k)

    rec: Optional[TraceRecorder] = None
    if sink is not None:
        rec = TraceRecorder(
            sink,
            meta={
                "scenario": scenario.name,
                "n": scenario.n,
                "m": scenario.m,
                "k": scenario.k,
                "seed": scenario.seed,
                "fault_plan": plan.to_spec(),
            },
        )
    if rec is not None and telemetry is not None:
        from repro.obs.sink import TeeSink

        trace_sink: Optional[Any] = TeeSink(rec, telemetry)
    else:
        trace_sink = rec if rec is not None else telemetry
    if backend is None:
        backend = getattr(scenario, "backend", None)
    dm = DynamicMST.build(
        graph, scenario.k, rng=rng, init=scenario.init, engine=engine,
        trace=trace_sink, backend=backend,
    )
    mirror = graph.copy()
    batches: List[Dict[str, Any]] = []
    mismatches = 0
    try:
        with ChaosSession(dm, plan, checkpoint_every=checkpoint_every) as chaos:
            for batch in stream:
                report = chaos.apply(batch)
                for upd in batch:
                    if upd.kind == "add":
                        mirror.add_edge(upd.u, upd.v, upd.weight)
                    else:
                        mirror.remove_edge(upd.u, upd.v)
                oracle = kruskal_msf(mirror)
                want = msf_weight(oracle)
                got = dm.total_weight()
                ok = (
                    abs(want - got) < 1e-9
                    and msf_key_multiset(oracle) == msf_key_multiset(dm.msf_edges())
                )
                mismatches += 0 if ok else 1
                batches.append(
                    {"size": report.size, "rounds": report.rounds,
                     "weight": round(got, 9), "oracle_weight": round(want, 9),
                     "ok": ok}
                )
            dm.check()
            summary: Dict[str, Any] = {
                "scenario": scenario.name,
                "plan": plan.to_spec(),
                "ok": mismatches == 0,
                "mismatches": mismatches,
                "rounds": dm.net.ledger.rounds,
                "messages": dm.net.ledger.messages,
                "words": dm.net.ledger.words,
                "digest": dm.net.ledger.digest(),
                "msf_weight": round(dm.total_weight(), 9),
                "overhead_rounds": chaos.overhead_rounds,
                "faults": dict(chaos.injector.counters),
                "recoveries": chaos.counters["recoveries"],
                "replayed_batches": chaos.counters["replayed_batches"],
                "checkpoints": chaos.ckpt.checkpoints,
                "batches": batches,
            }
    finally:
        if trace_sink is not None:
            dm.detach_trace()
        if rec is not None:
            rec.close()
    return summary
