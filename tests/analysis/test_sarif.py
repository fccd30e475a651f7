"""SARIF 2.1.0 output: structure, rule catalog, levels, locations."""

import json
import os
import subprocess
import sys

from repro.analysis import ALL_RULES, to_sarif
from repro.analysis.findings import Finding

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _finding():
    return Finding("SIM006", "unstable argsort", "src/repro/perf/x.py", 12, 4)


def test_sarif_log_shape():
    log = to_sarif([_finding()])
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    [run_] = log["runs"]
    assert run_["tool"]["driver"]["name"] == "simlint"


def test_sarif_carries_the_full_rule_catalog():
    log = to_sarif([])
    ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
    assert ids == ["SIM000"] + [r.code for r in ALL_RULES]


def test_result_location_is_one_based_and_forward_slashed():
    log = to_sarif([_finding()])
    [result] = log["runs"][0]["results"]
    assert result["ruleId"] == "SIM006"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/perf/x.py"
    assert loc["region"] == {"startLine": 12, "startColumn": 5}


def test_cli_emits_parseable_sarif(tmp_path):
    mod = tmp_path / "proto.py"
    mod.write_text(
        "def f(net, work):\n"
        "    while work:\n"
        "        work = net.superstep(work)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "report.sarif"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.analysis", "proto.py",
            "--format", "sarif", "--output", str(out), "--no-cache",
        ],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert proc.returncode == 1  # findings still set the exit code
    log = json.loads(out.read_text())
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["SIM004"]
