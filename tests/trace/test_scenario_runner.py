"""One scenario runner: a scenario name fixes its ledger in every harness.

``repro trace`` (:func:`run_traced`) and ``repro chaos``
(:func:`run_chaos`) both build a scenario through
:meth:`Scenario.workload` and :meth:`Scenario.build`, so they charge the
same ledger — and that ledger is the one the committed ``BENCH_*.json``
trajectory files record.  Cross-engine parity on the smoke scenarios is
pinned in ``tests/perf/test_scenario_parity.py``.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan, run_chaos
from repro.trace import read_trace, validate_events
from repro.trace.scenarios import get_scenario, run_traced

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["smoke-small", "smoke-medium", "smoke-init"])
def test_every_harness_charges_the_same_ledger(name):
    scenario = get_scenario(name)
    traced = run_traced(scenario, None)["digest"]
    chaos = run_chaos(scenario, FaultPlan(seed=0), checkpoint_every=None)
    assert chaos["ok"]
    assert chaos["digest"] == traced


def _committed_digests():
    rows = {}
    for path in ("BENCH_2026-08-07.json", "BENCH_2026-08-07_init.json"):
        for row in json.loads((ROOT / path).read_text())["scenarios"]:
            rows[row["name"]] = row["reference"]["digest"]
    return rows


@pytest.mark.parametrize("name", ["small", "medium", "init-medium"])
def test_traced_run_reproduces_the_committed_bench_row(name):
    assert run_traced(get_scenario(name), None)["digest"] == _committed_digests()[name]


def test_bench_trace_validates_and_names_its_scenario(tmp_path):
    scenario = get_scenario("smoke-small")
    path = tmp_path / "smoke-small.jsonl"
    run_traced(scenario, str(path))
    events = read_trace(path)
    validate_events(events)
    assert events[0]["meta"] == scenario.meta()


def test_bench_trace_is_closed_when_a_batch_raises(tmp_path, monkeypatch):
    from repro.core import DynamicMST

    def broken(self, batch):
        raise RuntimeError("batch failed")

    monkeypatch.setattr(DynamicMST, "apply_batch", broken)
    path = tmp_path / "smoke-small.jsonl"
    with pytest.raises(RuntimeError, match="batch failed"):
        run_traced(get_scenario("smoke-small"), str(path))
    events = read_trace(path)
    assert events[-1]["type"] == "trace_end"
