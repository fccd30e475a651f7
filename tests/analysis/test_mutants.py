"""Seeded-mutant tests: the analyzer must catch regressions we *inject*
into the real production modules.

Golden fixtures prove the rules fire on distilled patterns; these prove
they fire on the actual code the rules were built to guard — mutate one
load-bearing line of a shipped module and the relevant rule must flag
it, with the unmutated module staying clean as the control.
"""

import os
import shutil

from repro.analysis import analyze_source, run
from repro.analysis.config import SimlintConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


# ----------------------------------------------------------------------
# SIM006: strip kind="stable" from the columnar init scan
# ----------------------------------------------------------------------
def _mini_project(tmp_path, mutate):
    """Copy the dispatching scalar module + its columnar twin into a
    scratch src tree, optionally dropping the stable-sort guarantee."""
    for rel in (
        "repro/core/init_build.py",
        "repro/perf/init_columnar.py",
        "repro/perf/config.py",
    ):
        dst = tmp_path / "src" / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(os.path.join(SRC, rel), dst)
    columnar = tmp_path / "src" / "repro" / "perf" / "init_columnar.py"
    source = columnar.read_text()
    assert 'kind="stable"' in source, "anchor moved; update this test"
    if mutate:
        source = source.replace(', kind="stable"', "")
    columnar.write_text(source)
    return run(
        [str(tmp_path / "src")],
        select=["SIM006"],
        config=SimlintConfig(root=str(tmp_path)),
    )


def test_unmutated_columnar_init_is_sim006_clean(tmp_path):
    report = _mini_project(tmp_path, mutate=False)
    assert report.findings == [], report.format_text()


def test_stripping_stable_sort_is_caught_by_sim006(tmp_path):
    report = _mini_project(tmp_path, mutate=True)
    codes = {f.code for f in report.findings}
    assert codes == {"SIM006"}, report.format_text()
    assert any("init_columnar.py" in f.path for f in report.findings)


# ----------------------------------------------------------------------
# SIM007: make the shipped FaultInjector impure
# ----------------------------------------------------------------------
_INTERCEPT_DEF = "def intercept(self, messages: List[Message], net: Network) -> FaultOutcome:"


def _injector_source():
    with open(os.path.join(SRC, "repro", "faults", "injector.py")) as f:
        source = f.read()
    assert _INTERCEPT_DEF in source, "anchor moved; update this test"
    return source


def test_unmutated_injector_is_clean():
    assert analyze_source(_injector_source(), "injector.py") == []


def test_state_mutation_in_fault_hook_is_caught_by_sim007():
    mutated = _injector_source().replace(
        _INTERCEPT_DEF,
        _INTERCEPT_DEF + "\n        net.round_no = 0",
    )
    findings = analyze_source(mutated, "injector.py")
    assert {f.code for f in findings} == {"SIM007"}
    assert any("simulator handle" in f.message for f in findings)


def test_unseeded_entropy_in_fault_hook_is_caught_by_sim007():
    mutated = _injector_source().replace(
        _INTERCEPT_DEF,
        _INTERCEPT_DEF + "\n        rng = np.random.default_rng()",
    )
    findings = analyze_source(mutated, "injector.py")
    assert {f.code for f in findings} == {"SIM007"}
    assert any("seed" in f.message for f in findings)
