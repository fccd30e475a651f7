"""The repo's own source must stay simlint-clean under plain ``pytest``.

This is the enforcement hook: a model-compliance regression anywhere in
``src/repro`` fails the test suite with the analyzer's own report, the
same text a developer would see from ``python -m repro.analysis``.
Known debt lives in ``simlint-baseline.json``; anything not inventoried
there fails here.
"""

import os

from repro.analysis import Baseline, run

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BASELINE = os.path.join(REPO_ROOT, "simlint-baseline.json")


def _report():
    return run(
        [os.path.join(REPO_ROOT, "src", "repro")],
        baseline=Baseline.load(BASELINE),
    )


def test_src_repro_is_simlint_clean_modulo_baseline():
    report = _report()
    assert not report.findings, "\n" + report.format_text()
    assert report.files_checked >= 70


def test_baseline_debt_is_exactly_inventoried():
    # The baseline is empty: the last debt (two SIM004 loops in
    # DynamicMST.apply_one_at_a_time reaching broadcast() with no
    # dominating phase) was paid by charging both loops under one
    # ledger.phase.  The ratchet means it stays empty without a
    # deliberate --update-baseline.
    report = _report()
    assert len(report.baselined) == 0, report.format_text()
    assert report.stale_baseline == [], report.format_text()


def test_suppressions_in_src_are_all_used():
    # run() already folds unused suppressions into findings as SIM000;
    # a clean report therefore also certifies every suppression earns
    # its keep.  Pin the current count so new ones get a second look.
    # 6 from the seed (2×SIM003 repro.sim.strict RNG-state reads, 1×SIM004
    # repro.sim.program superstep loop, 3×SIM005 repro.core.api report
    # log) + 1×SIM002 (repro.perf.config override_fast_path scope) +
    # 1×SIM003 (the trace recorder's opt-in wall_ns stamp).  The BusSink
    # stamp's suppression is not counted: pyproject.toml disables SIM003
    # for src/repro/obs, so it is never consulted.
    # Removed with the parallel backend (25 → 13): 3×SIM002
    # (repro.perf.config backend toggle), 1×SIM002 (repro.sim.executor
    # backend registry cache), 1×SIM002 (repro.sim.executor fork-pool
    # worker function, one of the seed's 7), 1×SIM002 (pool telemetry
    # sink slot) and 6×SIM003 (pool dispatch timing).
    # Removed with the phase profiler and the stream ingestor's clock
    # (13 → 9): 2×SIM003 in Ledger.phase and 2×SIM003 in
    # StreamIngestor.run.
    # Removed with the process-wide engine default (9 → 8): its setter's
    # 1×SIM002 in repro.perf.config.
    # The engine became fixed per network (8 → 7): the override scope's
    # 1×SIM002 in repro.perf.config went.  The state seam (7 → 9): 2×SIM005
    # in repro.core.state, MachineState.set_tour_id/set_witness, whose
    # writes the protocol's refresh points sample.
    report = _report()
    assert report.suppressions_used == 9, report.format_text()
