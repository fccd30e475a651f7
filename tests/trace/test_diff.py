"""Divergence diagnostics: pinpoint the first charge two runs disagree on."""

from repro.trace import first_divergence, read_trace, render_divergence
from repro.trace.events import TRACE_SCHEMA
from repro.trace.scenarios import Scenario, run_traced

TINY = Scenario("tiny", n=60, k=4, batch=3, n_batches=2, init="free", seed=0)


def synthetic(triples):
    events = [{"type": "trace_start", "seq": 0, "schema": TRACE_SCHEMA, "meta": {}}]
    for i, (r, m, w) in enumerate(triples):
        events.append({"type": "charge", "seq": i + 1, "index": i,
                       "rounds": r, "messages": m, "words": w,
                       "phases": ["p"], "site": "x.py:1"})
    return events


def test_identical_traces_have_no_divergence():
    a = synthetic([(1, 0, 0), (2, 3, 9)])
    b = synthetic([(1, 0, 0), (2, 3, 9)])
    assert first_divergence(a, b) is None
    assert "traces equivalent: 2 charges" in render_divergence(None, a, b)


def test_mismatch_reports_the_first_divergent_index():
    a = synthetic([(1, 0, 0), (2, 3, 9), (1, 1, 1)])
    b = synthetic([(1, 0, 0), (2, 3, 8), (5, 5, 5)])
    d = first_divergence(a, b)
    assert d is not None
    assert d.kind == "mismatch"
    assert d.index == 1  # the later difference at index 2 is not reported
    assert d.a["words"] == 9 and d.b["words"] == 8


def test_truncation_is_a_divergence():
    a = synthetic([(1, 0, 0), (2, 3, 9)])
    b = synthetic([(1, 0, 0)])
    d = first_divergence(a, b)
    assert d.kind == "truncated-b"
    assert d.index == 1
    assert d.b is None and d.a["index"] == 1
    d2 = first_divergence(b, a)
    assert d2.kind == "truncated-a"
    assert d2.a is None


def test_render_shows_phase_site_and_context():
    a = synthetic([(1, 0, 0), (2, 3, 9)])
    b = synthetic([(1, 0, 0), (2, 3, 8)])
    text = render_divergence(first_divergence(a, b), a, b, name_a="ref", name_b="fast")
    assert "first divergent charge at transcript index 1 (mismatch)" in text
    assert "ref: charge index=1" in text
    assert "phase: p" in text
    assert "site:  x.py:1" in text
    assert ">> #1" in text  # the divergent charge is highlighted in context


def test_same_seed_runs_diff_clean(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_traced(TINY, str(a))
    run_traced(TINY, str(b))
    assert a.read_bytes() == b.read_bytes()  # determinism, the strong form
    assert first_divergence(read_trace(a), read_trace(b)) is None


def test_perturbed_run_is_pinpointed(tmp_path):
    """The acceptance path: a seeded fault names its phase and location."""
    a = tmp_path / "a.jsonl"
    p = tmp_path / "p.jsonl"
    clean = run_traced(TINY, str(a))
    perturbed = run_traced(TINY, str(p), perturb_batch=1)
    assert perturbed["digest"] != clean["digest"]
    events_a, events_p = read_trace(a), read_trace(p)
    d = first_divergence(events_a, events_p)
    assert d is not None and d.kind == "mismatch"
    # The first divergent charge in the perturbed trace IS the injected
    # one-round perturbation, attributed to its phase.
    assert d.b["phases"] == ["perturbation"]
    assert (d.b["rounds"], d.b["messages"], d.b["words"]) == (1, 0, 0)
    text = render_divergence(d, events_a, events_p)
    assert "perturbation" in text
    assert "context —" in text


def test_engine_pins_produce_equivalent_traces(tmp_path):
    """Scalar and columnar runs diff clean — the fast-path contract, located."""
    s = tmp_path / "scalar.jsonl"
    c = tmp_path / "columnar.jsonl"
    scalar = run_traced(TINY, str(s), backend="reference")
    columnar = run_traced(TINY, str(c), backend="inproc-columnar")
    assert scalar["digest"] == columnar["digest"]
    assert first_divergence(read_trace(s), read_trace(c)) is None
