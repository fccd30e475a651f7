"""The metrics façade: roll a trace into per-phase / per-machine summaries.

Consumes the JSONL event stream written by
:class:`~repro.trace.recorder.TraceRecorder` and produces:

* per-phase totals (rounds, messages, words, calls — the same
  attribution rule as :class:`~repro.sim.metrics.Ledger`) and, when the
  events carry ``wall_ns`` stamps (``REPRO_TRACE_WALL=1``), each phase's
  inclusive and self wall time, paired from its ``phase_start``/
  ``phase_end`` events;
* per-machine cumulative send/recv word loads and their skew
  (max/mean) — the quantity the Lenzen-routing assumptions keep near 1;
* a message-size histogram;
* per-batch round costs checked against the active theorem's round
  budget (:mod:`repro.trace.budgets`);
* engine-selection and strict-violation tallies.

The events are folded once, by the live metrics registry
(:class:`repro.obs.registry.MetricsRegistry`), the same fold behind
``/metrics``.  Three export surfaces: a human table
(:func:`render_text`), a JSON dict (:func:`to_json`), and a
Prometheus-style text exposition (:func:`to_prometheus`) for scraping
into standard dashboards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.trace.budgets import RoundBudget, budget_for_run
from repro.trace.events import strip_ambient, validate_events

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry, PhaseRow


@dataclass
class BatchRow:
    size: int
    mode: str
    rounds: int
    messages: int
    words: int
    budget_rounds: int
    within_budget: bool


@dataclass
class TraceSummary:
    meta: Dict[str, Any]
    run: Dict[str, Any]
    budget: RoundBudget
    rounds: int = 0
    messages: int = 0
    words: int = 0
    charges: int = 0
    supersteps: int = 0
    phases: Dict[str, PhaseRow] = field(default_factory=dict)
    send_words: List[int] = field(default_factory=list)
    recv_words: List[int] = field(default_factory=list)
    send_skew: float = 1.0
    recv_skew: float = 1.0
    size_hist: Dict[int, int] = field(default_factory=dict)
    batches: List[BatchRow] = field(default_factory=list)
    engines: Dict[str, int] = field(default_factory=dict)
    engine_selections: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: List[Dict[str, str]] = field(default_factory=list)
    faults: Dict[str, int] = field(default_factory=dict)
    crashes: int = 0
    restarts: int = 0
    checkpoints: int = 0
    recoveries: int = 0
    recovery_rounds: int = 0
    replayed_batches: int = 0

    @property
    def budget_violations(self) -> int:
        return sum(1 for b in self.batches if not b.within_budget)


#: :class:`TraceSummary` fields the registry folds under the same name.
_FOLDED = (
    "rounds", "messages", "words", "charges", "supersteps", "phases",
    "send_words", "recv_words", "send_skew", "recv_skew", "size_hist",
    "engines", "faults", "crashes", "restarts", "checkpoints",
    "recoveries", "recovery_rounds", "replayed_batches",
)


def summarize(
    events: Sequence[Dict[str, Any]],
    envelope: Optional[int] = None,
    validate: bool = True,
) -> TraceSummary:
    """Roll a full event stream into a :class:`TraceSummary`.

    The events are folded by one bus-less registry.  Read from the list
    itself is only what a live registry must not keep: the trace meta,
    one row per batch, the violation messages and engine selections.
    """
    if validate:
        validate_events(events)
    registry = _fold(events, envelope)

    def of_type(etype: str) -> List[Dict[str, Any]]:
        return [e for e in events if e.get("type") == etype]

    starts = of_type("trace_start")
    meta = dict(starts[0].get("meta") or {}) if starts else {}
    budget = registry.budget or budget_for_run(meta, envelope=envelope)
    batches = []
    for e in of_type("batch_end"):
        size, mode, rounds = int(e["size"]), str(e["mode"]), int(e["rounds"])
        allowed = budget.batch_budget(size, mode)
        batches.append(BatchRow(size, mode, rounds, int(e["messages"]),
                                int(e["words"]), allowed, rounds <= allowed))
    engine_selections: Dict[str, Dict[str, int]] = {}
    for e in of_type("engine"):
        per = engine_selections.setdefault(str(e["feature"]), {})
        per[str(e["engine"])] = per.get(str(e["engine"]), 0) + 1
    return TraceSummary(
        meta=meta, run=registry.run_meta, budget=budget, batches=batches,
        engine_selections=engine_selections,
        violations=[{"kind": str(e["kind"]), "message": str(e["message"])}
                    for e in of_type("violation")],
        **{name: getattr(registry, name) for name in _FOLDED},
    )


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def render_text(summary: TraceSummary) -> str:
    lines: List[str] = []
    scenario = summary.meta.get("scenario")
    lines.append("trace report" + (f" — scenario {scenario}" if scenario else ""))
    if summary.run:
        model = summary.run.get("model", "?")
        cap = summary.run.get("space", summary.run.get("k", "?"))
        lines.append(
            f"model {model}  k={summary.run.get('k', '?')}  capacity={cap}  "
            f"engine={summary.run.get('engine', '?')}"
        )
    lines.append(
        f"totals: rounds={summary.rounds} messages={summary.messages} "
        f"words={summary.words} charges={summary.charges} "
        f"supersteps={summary.supersteps}"
    )
    if summary.engines:
        mix = "  ".join(
            f"{name}={count}" for name, count in sorted(summary.engines.items())
        )
        lines.append(f"superstep engines: {mix}")
    for feature in sorted(summary.engine_selections):
        per = summary.engine_selections[feature]
        mix = "  ".join(f"{name}={count}" for name, count in sorted(per.items()))
        lines.append(f"engine[{feature}]: {mix}")

    if summary.phases:
        lines.append("")
        has_wall = any(r.wall_s is not None for r in summary.phases.values())
        header = f"{'phase':<28} {'rounds':>8} {'messages':>9} {'words':>10} {'calls':>7}"
        if has_wall:
            header += f" {'wall_s':>8} {'self_s':>8}"
        lines.append(header)
        for name in sorted(summary.phases, key=lambda n: -summary.phases[n].rounds):
            row = summary.phases[name]
            text = (
                f"{name:<28} {row.rounds:>8} {row.messages:>9} "
                f"{row.words:>10} {row.calls:>7}"
            )
            if has_wall:
                text += (f" {row.wall_s:8.3f} {row.self_s:8.3f}" if row.wall_s is not None
                         else f" {'-':>8} {'-':>8}")
            lines.append(text)

    if summary.send_words or summary.recv_words:
        lines.append("")
        lines.append(
            f"machine load: send max={max(summary.send_words, default=0)} "
            f"skew={summary.send_skew:.2f}  "
            f"recv max={max(summary.recv_words, default=0)} "
            f"skew={summary.recv_skew:.2f}  (over {len(summary.send_words)} machines)"
        )

    if summary.size_hist:
        top = sorted(summary.size_hist.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        mix = "  ".join(f"{w}w×{c}" for w, c in top)
        lines.append(f"message sizes: {mix}")

    if summary.batches:
        lines.append("")
        lines.append(f"batches vs {summary.budget.describe()}")
        lines.append(
            f"{'batch':>5} {'size':>5} {'mode':<14} {'rounds':>7} "
            f"{'budget':>7}  status"
        )
        for i, b in enumerate(summary.batches):
            status = "ok" if b.within_budget else "OVER BUDGET"
            lines.append(
                f"{i:>5} {b.size:>5} {b.mode:<14} {b.rounds:>7} "
                f"{b.budget_rounds:>7}  {status}"
            )
        lines.append(
            f"{summary.budget_violations}/{len(summary.batches)} batches over budget"
        )

    if summary.faults or summary.crashes or summary.checkpoints:
        lines.append("")
        mix = "  ".join(
            f"{kind}={count}" for kind, count in sorted(summary.faults.items())
        )
        lines.append(f"faults: {mix or 'none'}")
        lines.append(
            f"chaos: crashes={summary.crashes} restarts={summary.restarts} "
            f"checkpoints={summary.checkpoints} recoveries={summary.recoveries} "
            f"recovery_rounds={summary.recovery_rounds} "
            f"replayed_batches={summary.replayed_batches}"
        )

    if summary.violations:
        lines.append("")
        lines.append(f"strict violations: {len(summary.violations)}")
        for v in summary.violations[:10]:
            lines.append(f"  [{v['kind']}] {v['message']}")
    return "\n".join(lines)


def to_json(summary: TraceSummary) -> Dict[str, Any]:
    return {
        "schema": "repro-trace-report/1",
        "meta": summary.meta,
        "run": summary.run,
        "totals": {
            "rounds": summary.rounds,
            "messages": summary.messages,
            "words": summary.words,
            "charges": summary.charges,
            "supersteps": summary.supersteps,
        },
        "phases": {
            name: {
                "rounds": row.rounds,
                "messages": row.messages,
                "words": row.words,
                "calls": row.calls,
                **(
                    {"wall_s": row.wall_s, "self_s": row.self_s}
                    if row.wall_s is not None
                    else {}
                ),
            }
            for name, row in sorted(summary.phases.items())
        },
        "machines": {
            "send_words": summary.send_words,
            "recv_words": summary.recv_words,
            "send_skew": round(summary.send_skew, 4),
            "recv_skew": round(summary.recv_skew, 4),
        },
        "message_sizes": {
            str(w): c for w, c in sorted(summary.size_hist.items())
        },
        "engines": summary.engines,
        "engine_selections": summary.engine_selections,
        "budget": {
            "theorem": summary.budget.theorem,
            "capacity": summary.budget.capacity,
            "envelope": summary.budget.envelope,
            "violations": summary.budget_violations,
        },
        "batches": [
            {
                "size": b.size,
                "mode": b.mode,
                "rounds": b.rounds,
                "messages": b.messages,
                "words": b.words,
                "budget_rounds": b.budget_rounds,
                "within_budget": b.within_budget,
            }
            for b in summary.batches
        ],
        "violations": summary.violations,
        "faults": {
            "kinds": {k: v for k, v in sorted(summary.faults.items())},
            "crashes": summary.crashes,
            "restarts": summary.restarts,
            "checkpoints": summary.checkpoints,
            "recoveries": summary.recoveries,
            "recovery_rounds": summary.recovery_rounds,
            "replayed_batches": summary.replayed_batches,
        },
    }


def to_prometheus(
    events: Sequence[Dict[str, Any]], envelope: Optional[int] = None
) -> str:
    """Prometheus text exposition of a trace (one scrape per trace).

    The events are folded by the live registry
    (:class:`repro.obs.registry.MetricsRegistry`), so ``repro report
    --prometheus`` and the ``/metrics`` endpoint share one set of metric
    names, types, label escaping and value formatting.  Ambient
    ``wall_ns`` stamps are stripped first: the exposition of a trace
    never depends on whether it was recorded with wall-clock stamps.
    """
    from repro.obs.prom import render_families

    registry = _fold([strip_ambient(e) for e in events], envelope)
    return render_families(registry.collect())


def _fold(events: Sequence[Dict[str, Any]], envelope: Optional[int]) -> MetricsRegistry:
    """``events`` folded through one bus-less registry."""
    from repro.obs.registry import MetricsRegistry  # repro.obs imports this package

    registry = MetricsRegistry(envelope=envelope)
    for event in events:
        registry.apply(event)
    return registry
