"""The metrics façade: summaries, budgets, and the three export surfaces."""

import pytest

from repro.trace import read_trace, render_text, summarize, to_json, to_prometheus
from repro.trace.budgets import DEFAULT_ENVELOPE, RoundBudget, budget_for_run
from repro.trace.scenarios import Scenario, run_traced

TINY = Scenario("tiny", n=60, k=4, batch=3, n_batches=2, init="free", seed=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "tiny.jsonl"
    result = run_traced(TINY, str(path))
    return result, read_trace(path)


def test_summary_totals_match_the_ledger(traced):
    result, events = traced
    summary = summarize(events)
    assert summary.rounds == result["rounds"]
    assert summary.messages == result["messages"]
    assert summary.words == result["words"]
    assert summary.charges == summary.supersteps + (
        summary.charges - summary.supersteps
    )
    assert summary.meta["scenario"] == "tiny"
    assert summary.run["model"] == "k-machine"


def test_summary_phases_and_batches(traced):
    result, events = traced
    summary = summarize(events)
    assert summary.phases  # protocol code always runs inside phases
    assert all(row.calls > 0 for row in summary.phases.values())
    assert len(summary.batches) == TINY.n_batches
    sizes = [b.size for b in summary.batches]
    assert sizes == [r["size"] for r in result["batches"]]
    assert summary.budget_violations == 0
    assert set(summary.engines) <= {"scalar", "columnar"}
    assert summary.supersteps > 0


def test_summary_machine_loads(traced):
    _result, events = traced
    summary = summarize(events)
    assert len(summary.send_words) == TINY.k
    assert len(summary.recv_words) == TINY.k
    # Every word sent is received by someone.
    assert sum(summary.send_words) == sum(summary.recv_words)
    assert summary.send_skew >= 1.0
    assert summary.size_hist and all(
        w > 0 and c > 0 for w, c in summary.size_hist.items()
    )


def test_tight_envelope_flags_batches(traced):
    _result, events = traced
    summary = summarize(events, envelope=1)
    assert summary.budget_violations == len(summary.batches)
    text = render_text(summary)
    assert "OVER BUDGET" in text


def test_render_text_surfaces(traced):
    _result, events = traced
    text = render_text(summarize(events))
    assert "scenario tiny" in text
    assert "totals: rounds=" in text
    assert "machine load:" in text
    assert "Theorems 5.1/6.1" in text
    assert "0/2 batches over budget" in text


def test_to_json_shape(traced):
    result, events = traced
    doc = to_json(summarize(events))
    assert doc["schema"] == "repro-trace-report/1"
    assert doc["totals"]["rounds"] == result["rounds"]
    assert doc["budget"]["violations"] == 0
    assert len(doc["batches"]) == TINY.n_batches
    assert doc["machines"]["send_skew"] >= 1.0
    assert all(isinstance(v["rounds"], int) for v in doc["phases"].values())


def test_to_prometheus_exposition(traced):
    result, events = traced
    text = to_prometheus(events)
    assert f"repro_rounds_total {result['rounds']}" in text
    assert f"repro_words_total {result['words']}" in text
    assert "# TYPE repro_rounds_total counter" in text
    assert 'repro_machine_send_words_total{machine="0"}' in text
    assert "repro_batch_budget_violations_total 0" in text
    # Exposition format: every non-comment line is "name{labels} value".
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        assert name_part.startswith("repro_")
        float(value)


def test_profile_rides_into_phase_rows(tmp_path, monkeypatch):
    # A per-phase wall profile is a stamped trace folded by the report.
    monkeypatch.setenv("REPRO_TRACE_WALL", "1")
    path = tmp_path / "prof.jsonl"
    run_traced(TINY, str(path))
    summary = summarize(read_trace(path))
    profiled = [r for r in summary.phases.values() if r.wall_s is not None]
    assert profiled
    assert all(0 <= r.self_s <= r.wall_s for r in profiled)
    text = render_text(summary)
    assert "wall_s" in text and "self_s" in text


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------
def test_batch_budget_arithmetic():
    b = RoundBudget(theorem="Theorems 5.1/6.1", model="k-machine",
                    capacity=8, envelope=100)
    assert b.batch_budget(8, "batch") == 100       # one O(1) unit
    assert b.batch_budget(9, "batch") == 200       # ceil(9/8) units
    assert b.batch_budget(64, "batch") == 800
    assert b.batch_budget(3, "one_at_a_time") == 300  # Thm 5.1 per update
    assert b.batch_budget(0, "batch") == 100


def test_budget_for_run_selects_the_theorem():
    k = budget_for_run({"model": "k-machine", "k": 16})
    assert k.theorem == "Theorems 5.1/6.1"
    assert k.capacity == 16
    assert k.envelope == DEFAULT_ENVELOPE
    mpc = budget_for_run({"model": "mpc", "space": 40, "k": 4}, envelope=7)
    assert mpc.theorem == "Theorem 8.1"
    assert mpc.capacity == 40
    assert mpc.envelope == 7
    # Unknown models degrade to a k-machine budget rather than failing.
    assert budget_for_run({}).capacity == 1


def test_distributed_init_trace_validates_and_carries_init(tmp_path):
    # A measured (Theorem 5.8) init charges the ledger before any batch;
    # the recorder must ride through build so the trace's charge indices
    # stay contiguous from 0 — read_trace validates exactly that.
    tiny = Scenario("tiny-init", n=30, k=3, batch=3, n_batches=2, seed=0,
                    init="distributed")
    path = tmp_path / "tiny-init.jsonl"
    result = run_traced(tiny, str(path))
    events = read_trace(path)
    summary = summarize(events)
    assert summary.rounds == result["rounds"]
    assert "init" in summary.phases
    assert summary.phases["init"].rounds > 0
    assert len(summary.batches) == tiny.n_batches


# ----------------------------------------------------------------------
# edge cases: empty traces, degenerate shapes, exposition escaping
# ----------------------------------------------------------------------
def _header():
    from repro.trace.events import TRACE_SCHEMA

    return {"type": "trace_start", "seq": 0, "schema": TRACE_SCHEMA,
            "meta": {}}


def test_empty_trace_summarizes_to_zeroes():
    events = [
        _header(),
        {"type": "trace_end", "seq": 1, "events": 1, "charges": 0,
         "rounds": 0, "messages": 0, "words": 0},
    ]
    summary = summarize(events)
    assert summary.rounds == summary.messages == summary.words == 0
    assert summary.phases == {}
    assert summary.batches == []
    assert summary.send_skew == 1.0  # no load is perfectly balanced
    text = render_text(summary)
    assert "totals: rounds=0" in text
    prom = to_prometheus(events)
    assert "repro_rounds_total 0" in prom
    # No batches → no headroom gauges (nothing to report headroom on).
    assert "repro_budget_headroom_rounds" not in prom
    assert to_json(summary)["totals"]["rounds"] == 0


def test_single_phase_trace():
    events = [
        _header(),
        {"type": "charge", "seq": 1, "index": 0, "rounds": 3,
         "messages": 2, "words": 4, "phases": ["only.phase"]},
    ]
    summary = summarize(events, validate=False)
    assert list(summary.phases) == ["only.phase"]
    row = summary.phases["only.phase"]
    assert (row.rounds, row.messages, row.words, row.calls) == (3, 2, 4, 1)
    assert "only.phase" in render_text(summary)
    assert 'repro_phase_rounds_total{phase="only.phase"} 3' in to_prometheus(
        events
    )


def test_prometheus_escapes_label_values():
    hostile = 'del."odd\\phase"\nnewline'
    events = [
        _header(),
        {"type": "charge", "seq": 1, "index": 0, "rounds": 1,
         "messages": 0, "words": 0, "phases": [hostile]},
    ]
    prom = to_prometheus(events)
    expected = 'del.\\"odd\\\\phase\\"\\nnewline'
    assert f'repro_phase_rounds_total{{phase="{expected}"}} 1' in prom
    # The raw (unescaped) value must not appear on any sample line.
    assert hostile not in prom


def test_chaos_section_with_zero_faults():
    # A crash/recovery trace where the injector never fired: the chaos
    # section must render (crashes happened) without a fault mix.
    events = [
        _header(),
        {"type": "machine_crash", "seq": 1, "machine": 1, "batch": 0},
        {"type": "checkpoint", "seq": 2, "batch": 0},
        {"type": "recovery_end", "seq": 3, "rounds": 5, "replayed": 1},
    ]
    summary = summarize(events, validate=False)
    assert summary.faults == {}
    assert summary.crashes == 1
    text = render_text(summary)
    assert "faults: none" in text
    assert "crashes=1" in text
    prom = to_prometheus(events)
    assert "repro_faults_total 0" in prom  # empty family scrapes as zero
    assert "repro_recovery_rounds_total 5" in prom


def test_gauges_are_typed_as_gauges(traced):
    _result, events = traced
    prom = to_prometheus(events)
    assert "# TYPE repro_machine_send_skew gauge" in prom
    assert "# TYPE repro_machine_recv_skew gauge" in prom
    assert "# TYPE repro_budget_headroom_rounds gauge" in prom
    assert "# TYPE repro_budget_headroom_rounds_min gauge" in prom
    # Counters stay counters.
    assert "# TYPE repro_rounds_total counter" in prom
