"""Per-phase wall time from stamped phase events, folded by the registry."""

from repro.obs import BusSink, MetricsRegistry, TelemetryBus, render_families
from repro.sim.metrics import Ledger
from repro.trace import render_text, summarize, to_json, validate_events
from repro.trace.events import TRACE_SCHEMA, validate_event
from repro.trace.scenarios import Scenario, run_traced

TINY = Scenario("tiny", n=60, k=4, batch=3, n_batches=2, init="free", seed=0)


def _trace(*body):
    events = [{"type": "trace_start", "seq": 0, "schema": TRACE_SCHEMA,
               "meta": {}}]
    for seq, event in enumerate(body, start=1):
        events.append({**event, "seq": seq})
    return events


def _start(name, depth, wall_ns):
    return {"type": "phase_start", "name": name, "depth": depth,
            "wall_ns": wall_ns}


def _end(name, depth, wall_ns, rounds=0):
    return {"type": "phase_end", "name": name, "depth": depth,
            "rounds": rounds, "messages": 0, "words": 0, "wall_ns": wall_ns}


def test_stamped_phases_give_inclusive_and_self_wall():
    # outer 0–100 ns holds inner 10–35 and inner again 50–75.
    events = _trace(
        _start("outer", 0, 0),
        _start("inner", 1, 10),
        {"type": "charge", "index": 0, "rounds": 2, "messages": 1,
         "words": 3, "phases": ["outer", "inner"], "wall_ns": 20},
        _end("inner", 1, 35, rounds=2),
        _start("inner", 1, 50),
        _end("inner", 1, 75),
        _end("outer", 0, 100, rounds=2),
    )
    summary = summarize(events)
    outer, inner = summary.phases["outer"], summary.phases["inner"]
    assert (outer.wall_s, outer.self_s) == (100e-9, 50e-9)
    assert (inner.wall_s, inner.self_s) == (50e-9, 50e-9)
    assert (inner.rounds, inner.calls) == (2, 1)
    assert to_json(summary)["phases"]["outer"]["self_s"] == 50e-9
    assert "self_s" in render_text(summary)


def test_unstamped_trace_with_legacy_profile_has_no_wall_columns():
    # Traces recorded while run_end carried a profile stay valid; the
    # report ignores the field, and unstamped phase events give no wall.
    events = _trace(
        {"type": "run_start", "model": "k-machine", "k": 4},
        {"type": "phase_start", "name": "p", "depth": 0},
        {"type": "charge", "index": 0, "rounds": 1, "messages": 1,
         "words": 1, "phases": ["p"]},
        {"type": "phase_end", "name": "p", "depth": 0, "rounds": 1,
         "messages": 1, "words": 1},
        {"type": "run_end", "rounds": 1, "messages": 1, "words": 1,
         "profile": {"p": {"wall_s": 0.5, "calls": 1.0}}},
    )
    validate_events(events)
    for event in events:
        validate_event(event, strict=True)
    summary = summarize(events)
    assert summary.phases["p"].wall_s is None
    text = render_text(summary)
    assert "wall_s" not in text and "allocs" not in text
    assert to_json(summary)["phases"]["p"] == {
        "rounds": 1, "messages": 1, "words": 1, "calls": 1,
    }


def test_dropped_phase_start_skips_the_unmatched_end():
    bus = TelemetryBus(capacity=4)
    registry = MetricsRegistry(bus)
    ledger = Ledger()
    ledger.recorder = BusSink(bus)
    with ledger.phase("outer"):
        for _ in range(6):
            ledger.charge(1)
    registry.pump()  # the ring lost trace_start, phase_start and 3 charges
    assert registry.dropped_events() > 0
    assert registry.phases["outer"].wall_s is None
    body = render_families(registry.collect())
    assert "repro_phase_seconds_total 0" in body
    assert registry.snapshot()["phases"]["outer"]["self_s"] is None


def test_bus_drop_forgets_activations_open_across_the_gap():
    # The first activation's start was read; its end and the second
    # activation's start were lost.  The second end must not pair with
    # the first start.
    bus = TelemetryBus(capacity=4)
    registry = MetricsRegistry(bus)
    ledger = Ledger()
    ledger.recorder = BusSink(bus)
    with ledger.phase("outer"):
        registry.pump()
        ledger.charge(1)
    with ledger.phase("outer"):
        for _ in range(6):
            ledger.charge(1)
    registry.pump()
    assert registry.dropped_events() > 0
    assert registry.phases["outer"].wall_s is None


def test_live_registry_exports_phase_seconds():
    bus = TelemetryBus()
    registry = MetricsRegistry(bus)
    sink = BusSink(bus)
    run_traced(TINY, None, telemetry=sink)
    sink.close()
    body = render_families(registry.collect())
    assert registry.dropped_events() == 0
    assert 'repro_phase_seconds_total{phase="' in body
    phases = registry.snapshot()["phases"]
    assert phases and all(row["self_s"] >= 0 for row in phases.values())
