"""Named scenarios and the one runner every harness builds them through.

One registry and one build path serve every surface: ``repro trace``
records a named run, ``repro chaos`` drives it under a fault plan and
``repro watch`` loops it with live telemetry.  All of them take the
graph and batches from :meth:`Scenario.workload` and the structure from
:meth:`Scenario.build`, so a scenario name fixes its ledger: the digest
``repro trace`` prints for a benchmark scenario is the digest of its
committed ``BENCH_*.json`` row.  The runner reads no clock: a per-phase
wall profile of a scenario is ``REPRO_TRACE_WALL=1 repro trace <name>``
followed by ``repro report``, which folds the stamped phase events.
Wall-clock benchmarking lives in ``bench/``, which builds its own
workloads and never imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.core import DynamicMST
    from repro.graphs import Update, WeightedGraph
    from repro.trace.recorder import TraceRecorder

#: Edge density of every scenario: m = 3n.
M_PER_N = 3


@dataclass(frozen=True)
class Scenario:
    """A seeded churn workload over a random weighted graph."""

    name: str
    n: int
    k: int
    batch: int
    n_batches: int
    #: Initialisation mode handed to :meth:`DynamicMST.build` — ``free``
    #: (oracle bootstrap: update-cost scenarios keep init out of their
    #: ledgers) or ``distributed`` (the measured Theorem 5.8 protocol;
    #: the init scenarios below benchmark it end to end).
    init: str
    seed: int = 0

    @property
    def m(self) -> int:
        return M_PER_N * self.n

    def meta(self) -> Dict[str, Any]:
        """The ``trace_start`` meta every harness records for this run."""
        return {
            "scenario": self.name,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "batch": self.batch,
            "n_batches": self.n_batches,
            "seed": self.seed,
            "init": self.init,
        }

    def workload(self) -> Tuple[WeightedGraph, List[List[Update]]]:
        """The seeded initial graph and its churn batches."""
        import numpy as np

        from repro.graphs import churn_stream, random_weighted_graph

        rng = np.random.default_rng(self.seed)
        graph = random_weighted_graph(self.n, self.m, rng)
        stream = list(churn_stream(graph.copy(), self.batch, self.n_batches, rng=rng))
        return graph, stream

    def build(
        self,
        graph: WeightedGraph,
        engine: str = "sample_gather",
        backend: Optional[str] = None,
        trace: Optional[Any] = None,
    ) -> DynamicMST:
        """A fresh structure over ``graph``.

        Its generator (vertex partition and protocol sampling) is a new
        one seeded with ``seed``, never the one that drew the workload —
        the convention the committed ``BENCH_*.json`` digests record.
        ``trace`` rides through build, so a measured init is traced too.
        """
        from repro.core import DynamicMST

        return DynamicMST.build(
            graph, self.k, rng=self.seed, init=self.init, engine=engine,
            trace=trace, backend=backend,
        )


FULL_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("small", n=300, k=8, batch=8, n_batches=6, init="free", seed=0),
    Scenario("medium", n=1000, k=8, batch=8, n_batches=6, init="free", seed=0),
    Scenario("wide", n=1000, k=32, batch=32, n_batches=6, init="free", seed=0),
    Scenario("large", n=3000, k=16, batch=64, n_batches=3, init="free", seed=0),
)
SMOKE_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("smoke-small", n=120, k=4, batch=4, n_batches=3, init="free", seed=0),
    Scenario("smoke-medium", n=240, k=8, batch=8, n_batches=3, init="free", seed=1),
)
#: Measured-initialisation trajectories: the same churn workloads, but
#: built with the charged Theorem 5.8 protocol instead of the oracle
#: bootstrap, so the init phase itself is part of the benchmark.
INIT_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("init-medium", n=1000, k=8, batch=8, n_batches=3,
             init="distributed", seed=0),
    Scenario("init-large", n=3000, k=16, batch=64, n_batches=3,
             init="distributed", seed=0),
)
INIT_SMOKE_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("smoke-init", n=150, k=4, batch=4, n_batches=2,
             init="distributed", seed=0),
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


@contextmanager
def trace_sink(
    sink: Optional[Union[str, IO[str]]],
    telemetry: Optional[Any],
    meta: Dict[str, Any],
) -> Iterator[Tuple[Optional[TraceRecorder], Optional[Any]]]:
    """Yield ``(recorder, attach)`` for one run; closes the recorder.

    ``recorder`` writes ``sink`` (``None`` without one) with ``meta`` as
    its ``trace_start`` meta.  ``attach`` is what to hand to
    :meth:`Scenario.build`: the recorder, the ``telemetry`` sink, or
    both teed.  Teeing never changes the file bytes or the ledger.
    """
    from repro.trace.recorder import TraceRecorder

    rec = TraceRecorder(sink, meta=meta) if sink is not None else None
    try:
        if rec is not None and telemetry is not None:
            from repro.obs.sink import TeeSink

            yield rec, TeeSink(rec, telemetry)
        else:
            yield rec, rec if rec is not None else telemetry
    finally:
        if rec is not None:
            rec.close()


def run_traced(
    scenario: Scenario,
    sink: Optional[Union[str, IO[str]]],
    engine: str = "sample_gather",
    perturb_batch: Optional[int] = None,
    backend: Optional[str] = None,
    telemetry: Optional[Any] = None,
) -> Dict[str, Any]:
    """Build and run one scenario with its trace attached; return a summary.

    ``sink`` is the trace file (path or text stream); pass ``None`` to
    run without a file recorder (live telemetry only).
    ``backend`` pins the execution engine by name (``None`` = the
    ambient default, see :mod:`repro.sim.executor`).
    ``perturb_batch`` deliberately charges one extra bookkeeping round
    before that batch index — a seeded fault for exercising
    ``repro trace-diff`` (the acceptance path for divergence
    diagnostics); it is never set in normal operation.
    ``telemetry`` is an extra :class:`~repro.sim.metrics.TraceSink`
    (typically a :class:`repro.obs.BusSink`) teed alongside the file
    recorder; teeing never changes the file bytes or the ledger digest.
    """
    graph, stream = scenario.workload()
    with trace_sink(sink, telemetry, scenario.meta()) as (rec, trace):
        dm = scenario.build(graph, engine=engine, backend=backend, trace=trace)
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
            if trace is not None:
                dm.detach_trace()
    ledger = dm.net.ledger
    return {
        "scenario": scenario.name,
        "rounds": ledger.rounds,
        "messages": ledger.messages,
        "words": ledger.words,
        "digest": ledger.digest(),
        "msf_weight": round(dm.total_weight(), 9),
        "init_rounds": dm.init_rounds,
        "strict_violations": dm.net.strict_violations,
        "batches": batch_reports,
        "events": rec.seq if rec is not None else 0,
    }
