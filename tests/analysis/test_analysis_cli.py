"""CLI contract: exit codes, output formats, rule selection."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES = os.path.join(REPO_ROOT, "tests", "analysis", "fixtures")
SRC = os.path.join(REPO_ROOT, "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


ALL_CODES = tuple(f"SIM00{i}" for i in range(10))


def test_fixture_directory_exits_nonzero_with_correct_codes():
    proc = run_cli(FIXTURES, "--no-cache")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    out = proc.stdout
    for code in ALL_CODES:
        assert code in out, f"{code} missing from:\n{out}"
    assert "suppression(s) honoured" in out


def test_gated_tree_exits_zero():
    proc = run_cli(
        os.path.join(SRC, "repro"),
        "--baseline", "simlint-baseline.json", "--no-cache",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The baseline is empty, so the gated tree is plainly clean.
    assert "clean" in proc.stdout


def test_json_format_is_machine_readable():
    proc = run_cli(FIXTURES, "--format", "json", "--no-cache")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["files_checked"] >= 20
    counts = {}
    for f in payload["findings"]:
        assert set(f) >= {"code", "message", "path", "line", "col"}
        counts[f["code"]] = counts.get(f["code"], 0) + 1
    assert counts["SIM001"] == 6
    assert counts["SIM002"] == 4
    assert counts["SIM003"] == 7  # 6 seeded + 1 un-silenced by bare directive
    assert counts["SIM004"] == 2
    assert counts["SIM005"] == 2
    assert counts["SIM006"] == 4
    assert counts["SIM007"] == 4
    assert counts["SIM008"] == 7  # 3 seeded + 2 scheduler + 2 serve
    assert counts["SIM009"] == 2  # 2 pairwise drifts
    assert counts["SIM000"] == 3


def test_select_restricts_rules():
    proc = run_cli(FIXTURES, "--select", "SIM005", "--format", "json", "--no-cache")
    assert proc.returncode == 1
    codes = {f["code"] for f in json.loads(proc.stdout)["findings"]}
    # Hygiene errors on malformed suppressions always surface.
    assert codes <= {"SIM005", "SIM000"}
    assert "SIM005" in codes


def test_select_unknown_code_is_usage_error():
    proc = run_cli(FIXTURES, "--select", "SIM042")
    assert proc.returncode == 2


def test_missing_path_is_usage_error():
    proc = run_cli(os.path.join(FIXTURES, "no_such_file.py"))
    assert proc.returncode == 2


def test_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ALL_CODES[1:]:
        assert code in proc.stdout


def test_text_findings_are_clickable_locations():
    proc = run_cli(os.path.join(FIXTURES, "sim001_violations.py"), "--no-cache")
    assert proc.returncode == 1
    first = proc.stdout.splitlines()[0]
    # path:line:col: CODE message
    assert "sim001_violations.py:" in first
    assert ": SIM001 " in first


@pytest.mark.parametrize("rule", list(ALL_CODES[1:]))
def test_each_rule_has_positive_and_negative_fixture(rule):
    base = rule.lower()
    assert os.path.exists(os.path.join(FIXTURES, f"{base}_violations.py"))
    assert os.path.exists(os.path.join(FIXTURES, f"{base}_clean.py"))
