"""Named trace/benchmark scenarios and the traced-run driver.

One registry serves both surfaces: ``repro trace <scenario>`` records a
single named run, and ``tools/bench_run.py`` iterates the same
definitions for its reference-vs-fast trajectories — so a trace
captured from a benchmark scenario is the *same workload*, not a
lookalike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Tuple, Union


@dataclass(frozen=True)
class Scenario:
    """A seeded churn workload over a random weighted graph."""

    name: str
    n: int
    k: int
    batch: int
    n_batches: int
    seed: int = 0
    #: Edge density: m = m_per_n * n (the benchmark harness's 3n).
    m_per_n: int = 3
    #: Initialisation mode handed to :meth:`DynamicMST.build` — ``free``
    #: (oracle bootstrap, the default: update-cost scenarios keep init
    #: out of their ledgers) or ``distributed`` (the measured Theorem 5.8
    #: protocol; the init scenarios below benchmark it end to end).
    init: str = "free"
    #: Execution backend the scenario pins (``reference`` or
    #: ``inproc-columnar``); ``None`` defers to the caller
    #: and then the ambient default.  Explicit ``fast=``/``backend=``
    #: arguments to the drivers outrank this field.
    backend: Optional[str] = None

    @property
    def m(self) -> int:
        return self.m_per_n * self.n


FULL_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("small", n=300, k=8, batch=8, n_batches=6, seed=0),
    Scenario("medium", n=1000, k=8, batch=8, n_batches=6, seed=0),
    Scenario("wide", n=1000, k=32, batch=32, n_batches=6, seed=0),
    Scenario("large", n=3000, k=16, batch=64, n_batches=3, seed=0),
)
SMOKE_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("smoke-small", n=120, k=4, batch=4, n_batches=3, seed=0),
    Scenario("smoke-medium", n=240, k=8, batch=8, n_batches=3, seed=1),
)
#: Measured-initialisation trajectories: the same churn workloads, but
#: built with the charged Theorem 5.8 protocol instead of the oracle
#: bootstrap, so the init phase itself is part of the benchmark.
INIT_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("init-medium", n=1000, k=8, batch=8, n_batches=3, seed=0,
             init="distributed"),
    Scenario("init-large", n=3000, k=16, batch=64, n_batches=3, seed=0,
             init="distributed"),
)
INIT_SMOKE_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("smoke-init", n=150, k=4, batch=4, n_batches=2, seed=0,
             init="distributed"),
)

SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in FULL_SCENARIOS + SMOKE_SCENARIOS + INIT_SCENARIOS + INIT_SMOKE_SCENARIOS
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None


def run_traced(
    scenario: Scenario,
    sink: Optional[Union[str, IO[str]]],
    fast: Optional[bool] = None,
    engine: str = "sample_gather",
    init: Optional[str] = None,
    profile: bool = False,
    perturb_batch: Optional[int] = None,
    backend: Optional[str] = None,
    telemetry: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run one scenario with a recorder attached; returns a run summary.

    ``sink`` is the trace file (path or text stream); pass ``None`` to
    run without a file recorder (live telemetry only).
    ``fast`` pins the columnar path on/off (None = process default).
    ``backend`` pins a full execution backend by name; precedence is
    ``backend`` argument > ``fast`` argument > ``scenario.backend`` >
    the ambient default (see :func:`repro.sim.executor.resolve_backend`).
    ``init`` overrides the scenario's init mode (None = use
    ``scenario.init``).
    ``perturb_batch`` deliberately charges one extra bookkeeping round
    before that batch index — a seeded fault for exercising
    ``repro trace-diff`` (the acceptance path for divergence
    diagnostics); it is never set in normal operation.
    ``telemetry`` is an extra :class:`~repro.sim.metrics.TraceSink`
    (typically a :class:`repro.obs.BusSink`) teed alongside the file
    recorder; teeing never changes the file bytes or the ledger digest.
    """
    import numpy as np

    from repro.core import DynamicMST
    from repro.graphs import churn_stream, random_weighted_graph
    from repro.sim.metrics import PhaseProfiler
    from repro.trace.recorder import TraceRecorder

    if init is None:
        init = scenario.init
    if backend is None and fast is None:
        backend = scenario.backend
    rng = np.random.default_rng(scenario.seed)
    graph = random_weighted_graph(scenario.n, scenario.m, rng)
    stream = list(
        churn_stream(graph.copy(), scenario.batch, scenario.n_batches, rng=rng)
    )

    rec: Optional[TraceRecorder] = None
    if sink is not None:
        rec = TraceRecorder(
            sink,
            meta={
                "scenario": scenario.name,
                "n": scenario.n,
                "m": scenario.m,
                "k": scenario.k,
                "batch": scenario.batch,
                "n_batches": scenario.n_batches,
                "seed": scenario.seed,
                "init": init,
            },
        )
    if rec is not None and telemetry is not None:
        from repro.obs.sink import TeeSink

        trace_sink: Optional[Any] = TeeSink(rec, telemetry)
    else:
        trace_sink = rec if rec is not None else telemetry
    # The recorder rides through build so a measured (distributed) init
    # is part of the trace — charge indices are contiguous from 0.
    dm = DynamicMST.build(
        graph, scenario.k, rng=rng, init=init, engine=engine, fast=fast,
        trace=trace_sink, backend=backend,
    )
    if profile:
        dm.net.ledger.profiler = PhaseProfiler()
    try:
        batch_reports: List[Dict[str, int]] = []
        for i, batch in enumerate(stream):
            if perturb_batch is not None and i == perturb_batch:
                with dm.net.ledger.phase("perturbation"):
                    dm.net.charge_rounds(1)
            report = dm.apply_batch(batch)
            batch_reports.append(
                {"size": report.size, "rounds": report.rounds,
                 "messages": report.messages, "words": report.words}
            )
        dm.check()
    finally:
        if trace_sink is not None:
            dm.detach_trace()
        if rec is not None:
            rec.close()
    return {
        "scenario": scenario.name,
        "rounds": dm.net.ledger.rounds,
        "messages": dm.net.ledger.messages,
        "words": dm.net.ledger.words,
        "digest": dm.net.ledger.digest(),
        "msf_weight": round(dm.total_weight(), 9),
        "batches": batch_reports,
        "events": rec.seq if rec is not None else 0,
    }
