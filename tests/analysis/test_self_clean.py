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
    # The two SIM004 entries on core/api.py (single_add / single_delete
    # reach broadcast() with no dominating phase) are known debt; the
    # ratchet means this list can only shrink without a deliberate
    # --update-baseline.
    report = _report()
    assert len(report.baselined) == 2, report.format_text()
    assert {e.code for _, e in report.baselined} == {"SIM004"}
    assert report.stale_baseline == [], report.format_text()


def test_suppressions_in_src_are_all_used():
    # run() already folds unused suppressions into findings as SIM000;
    # a clean report therefore also certifies every suppression earns
    # its keep.  Pin the current count so new ones get a second look.
    # 6 from the seed + 2×SIM002 (repro.perf.config fast-path toggle) +
    # 2×SIM003 (repro.sim.metrics profiler clock reads) + 2×SIM003
    # (opt-in wall_ns stamps: trace recorder + telemetry BusSink) +
    # 2×SIM003 (stream ingestor wall-clock throughput report).
    # Removed with the parallel backend (25 → 13): 3×SIM002
    # (repro.perf.config backend toggle), 1×SIM002 (repro.sim.executor
    # backend registry cache), 1×SIM002 (repro.sim.executor fork-pool
    # worker function, one of the seed's 7), 1×SIM002 (pool telemetry
    # sink slot) and 6×SIM003 (pool dispatch timing).
    report = _report()
    assert report.suppressions_used == 13, report.format_text()
