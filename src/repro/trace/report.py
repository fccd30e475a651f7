"""The metrics façade: roll a trace into per-phase / per-machine summaries.

Consumes the JSONL event stream written by
:class:`~repro.trace.recorder.TraceRecorder` and produces:

* per-phase totals (rounds, messages, words, calls — the same
  attribution rule as :class:`~repro.sim.metrics.Ledger`), merged with
  wall/alloc numbers when the run carried a
  :class:`~repro.sim.metrics.PhaseProfiler`;
* per-machine cumulative send/recv word loads and their skew
  (max/mean) — the quantity the Lenzen-routing assumptions keep near 1;
* a message-size histogram;
* per-batch round costs checked against the active theorem's round
  budget (:mod:`repro.trace.budgets`);
* engine-selection and strict-violation tallies.

Three export surfaces: a human table (:func:`render_text`), a JSON dict
(:func:`to_json`), and a Prometheus-style text exposition
(:func:`to_prometheus`, folded by the live metrics registry) for
scraping into standard dashboards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.trace.budgets import RoundBudget, budget_for_run
from repro.trace.events import strip_ambient, validate_events


@dataclass
class PhaseRow:
    rounds: int = 0
    messages: int = 0
    words: int = 0
    calls: int = 0
    wall_s: Optional[float] = None
    alloc_blocks: Optional[int] = None


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

    # -- load skew ------------------------------------------------------
    @staticmethod
    def _skew(loads: Sequence[int]) -> float:
        positive = [x for x in loads if x > 0]
        if not positive:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 1.0

    @property
    def send_skew(self) -> float:
        return self._skew(self.send_words)

    @property
    def recv_skew(self) -> float:
        return self._skew(self.recv_words)

    @property
    def budget_violations(self) -> int:
        return sum(1 for b in self.batches if not b.within_budget)


def _grow_to(vec: List[int], n: int) -> None:
    if len(vec) < n:
        vec.extend([0] * (n - len(vec)))


def summarize(
    events: Sequence[Dict[str, Any]],
    envelope: Optional[int] = None,
    validate: bool = True,
) -> TraceSummary:
    """Roll a full event stream into a :class:`TraceSummary`."""
    if validate:
        validate_events(events)
    meta: Dict[str, Any] = {}
    run: Dict[str, Any] = {}
    for event in events:
        if event["type"] == "trace_start":
            meta = dict(event.get("meta") or {})
        elif event["type"] == "run_start":
            run = {k: v for k, v in event.items() if k not in ("type", "seq")}
            break
    summary = TraceSummary(
        meta=meta, run=run, budget=budget_for_run(run or meta, envelope=envelope)
    )

    open_batch: Optional[Dict[str, Any]] = None
    for event in events:
        etype = event["type"]
        if etype in ("superstep", "charge"):
            summary.charges += 1
            summary.rounds += int(event["rounds"])
            summary.messages += int(event["messages"])
            summary.words += int(event["words"])
            # Same attribution rule as Ledger.charge: every name on the
            # stack (including repeats) receives the full triple.
            for name in event.get("phases", ()):
                row = summary.phases.setdefault(name, PhaseRow())
                row.rounds += int(event["rounds"])
                row.messages += int(event["messages"])
                row.words += int(event["words"])
                row.calls += 1
            if etype == "superstep":
                summary.supersteps += 1
                engine = str(event.get("engine", "?"))
                summary.engines[engine] = summary.engines.get(engine, 0) + 1
                send = [int(x) for x in event.get("send", ())]
                recv = [int(x) for x in event.get("recv", ())]
                _grow_to(summary.send_words, len(send))
                _grow_to(summary.recv_words, len(recv))
                for i, w in enumerate(send):
                    summary.send_words[i] += w
                for i, w in enumerate(recv):
                    summary.recv_words[i] += w
                for wstr, count in (event.get("sizes") or {}).items():
                    w = int(wstr)
                    summary.size_hist[w] = summary.size_hist.get(w, 0) + int(count)
        elif etype == "batch_start":
            open_batch = event
        elif etype == "batch_end":
            open_batch = None
            size = int(event["size"])
            mode = str(event["mode"])
            rounds = int(event["rounds"])
            allowed = summary.budget.batch_budget(size, mode)
            summary.batches.append(
                BatchRow(
                    size=size, mode=mode, rounds=rounds,
                    messages=int(event["messages"]), words=int(event["words"]),
                    budget_rounds=allowed, within_budget=rounds <= allowed,
                )
            )
        elif etype == "engine":
            feature = str(event["feature"])
            per = summary.engine_selections.setdefault(feature, {})
            per[str(event["engine"])] = per.get(str(event["engine"]), 0) + 1
        elif etype == "violation":
            summary.violations.append(
                {"kind": str(event["kind"]), "message": str(event["message"])}
            )
        elif etype == "fault":
            for kind, count in (event["kinds"] or {}).items():
                summary.faults[str(kind)] = (
                    summary.faults.get(str(kind), 0) + int(count)
                )
        elif etype == "machine_crash":
            summary.crashes += 1
        elif etype == "machine_restart":
            summary.restarts += 1
        elif etype == "checkpoint":
            summary.checkpoints += 1
        elif etype == "recovery_end":
            summary.recoveries += 1
            summary.recovery_rounds += int(event["rounds"])
            summary.replayed_batches += int(event["replayed"])
        elif etype == "run_end" and "profile" in event:
            for name, prof in (event["profile"] or {}).items():
                row = summary.phases.setdefault(name, PhaseRow())
                row.wall_s = float(prof.get("wall_s", 0.0))
                row.alloc_blocks = int(prof.get("alloc_blocks", 0))
    del open_batch  # an unterminated batch simply contributes no row
    return summary


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
        has_profile = any(r.wall_s is not None for r in summary.phases.values())
        header = f"{'phase':<28} {'rounds':>8} {'messages':>9} {'words':>10} {'calls':>7}"
        if has_profile:
            header += f" {'wall_s':>8} {'allocs':>9}"
        lines.append(header)
        for name in sorted(summary.phases, key=lambda n: -summary.phases[n].rounds):
            row = summary.phases[name]
            text = (
                f"{name:<28} {row.rounds:>8} {row.messages:>9} "
                f"{row.words:>10} {row.calls:>7}"
            )
            if has_profile:
                wall = f"{row.wall_s:8.3f}" if row.wall_s is not None else f"{'-':>8}"
                alloc = (
                    f"{row.alloc_blocks:9d}" if row.alloc_blocks is not None
                    else f"{'-':>9}"
                )
                text += f" {wall} {alloc}"
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
                    {"wall_s": row.wall_s, "alloc_blocks": row.alloc_blocks}
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
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(envelope=envelope)
    for event in events:
        registry.apply(strip_ambient(event))
    return render_families(registry.collect())
