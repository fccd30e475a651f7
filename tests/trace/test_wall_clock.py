"""Opt-in wall-clock stamps: ambient, strippable, digest-neutral."""

import io
import json

import pytest

from repro.trace.events import AMBIENT_FIELDS, strip_ambient, validate_event
from repro.trace.recorder import TraceRecorder
from repro.trace.scenarios import Scenario, run_traced

TINY = Scenario("tiny", n=60, k=4, batch=3, n_batches=2, init="free", seed=1)


def _events(text):
    return [json.loads(line) for line in text.splitlines()]


def test_default_trace_has_no_wall_ns():
    buf = io.StringIO()
    rec = TraceRecorder(buf)
    rec.emit("engine", feature="f", engine="e")
    rec.close()
    assert all("wall_ns" not in e for e in _events(buf.getvalue()))


def test_env_opt_in_stamps_every_event(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_WALL", "1")
    buf = io.StringIO()
    rec = TraceRecorder(buf)
    rec.emit("engine", feature="f", engine="e")
    rec.close()
    events = _events(buf.getvalue())
    assert events and all(isinstance(e.get("wall_ns"), int) for e in events)
    # Strict validation accepts the ambient field on every event type.
    for e in events:
        validate_event(e, strict=True)


def test_env_zero_means_off(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_WALL", "0")
    buf = io.StringIO()
    rec = TraceRecorder(buf)
    rec.close()
    assert all("wall_ns" not in e for e in _events(buf.getvalue()))


def test_explicit_argument_outranks_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_WALL", "1")
    buf = io.StringIO()
    rec = TraceRecorder(buf, wall_clock=False)
    rec.close()
    assert all("wall_ns" not in e for e in _events(buf.getvalue()))


def test_strip_ambient():
    assert strip_ambient({"type": "x", "seq": 0}) == {"type": "x", "seq": 0}
    stamped = {"type": "x", "seq": 0, "wall_ns": 123}
    stripped = strip_ambient(stamped)
    assert stripped == {"type": "x", "seq": 0}
    assert "wall_ns" in stamped  # original untouched
    assert AMBIENT_FIELDS == ("wall_ns",)


def test_wall_clock_never_changes_digest_or_stripped_trace(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_WALL", raising=False)
    plain = io.StringIO()
    baseline = run_traced(TINY, plain)

    monkeypatch.setenv("REPRO_TRACE_WALL", "1")
    stamped = io.StringIO()
    timed = run_traced(TINY, stamped)

    # The ledger digest is computed from the charge transcript, never
    # from trace bytes: opting in cannot move it.
    assert timed["digest"] == baseline["digest"]
    assert timed["rounds"] == baseline["rounds"]
    assert timed["events"] == baseline["events"]

    plain_events = _events(plain.getvalue())
    stamped_events = _events(stamped.getvalue())
    assert any("wall_ns" in e for e in stamped_events)
    assert [strip_ambient(e) for e in stamped_events] == plain_events


def test_report_summary_unchanged_by_wall_stamps(monkeypatch):
    from repro.trace.report import summarize, to_prometheus

    monkeypatch.setenv("REPRO_TRACE_WALL", "1")
    buf = io.StringIO()
    run_traced(TINY, buf)
    events = _events(buf.getvalue())
    summarize(events)  # validates in strict-compatible mode

    monkeypatch.delenv("REPRO_TRACE_WALL")
    plain = io.StringIO()
    run_traced(TINY, plain)
    assert to_prometheus(events) == to_prometheus(_events(plain.getvalue()))
