"""Tiny end-to-end runs, the declaration, and the bare-checkout failure."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import spec

TINY = {
    "core-batch64": {"n": 300, "m": 900, "k": 4, "batch": 16, "batches_per_s": 6.0},
    "serve-write": {"n": 200, "m": 600, "k": 4, "window": 8, "mutations_per_s": 96.0},
    "serve-mixed": {"n": 200, "m": 600, "k": 4, "read_rate": 200.0},
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result, detail = run.run_workload(workload, 0, 1.0, trace, params=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert detail["missing"] == []
    assert len(detail["ledger_digests"]) == 1
    assert detail["backend"] == "inproc-columnar"
    declared = spec.declaration()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    json.dumps(result)  # the last line must serialise


def test_traced_run_accounts_for_the_wall():
    reps = run.RUNNERS["serve-write"](
        dict(spec.WORKLOADS["serve-write"], **TINY["serve-write"]), 0, 1.0, True
    )
    layers = run.per_layer(reps)
    shares = sum(v for k, v in layers.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=0.05)


def test_declaration_follows_the_contract():
    decl = spec.declaration()
    assert set(decl) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert decl["command"] == ["python3", "bench/run.py"]
    assert decl["paths"] == ["bench"]
    assert 1 <= decl["run_seconds"] <= 60 and isinstance(decl["run_seconds"], int)
    assert [w["name"] for w in decl["workloads"]] == list(spec.WORKLOADS)
    names = [w["name"] for w in decl["workloads"]]
    names += [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in decl["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {}
    for m in decl["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for m in decl["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    # 4 + 22 runs per workload, each about run_seconds plus set-up.
    assert (4 + 22 * len(decl["workloads"])) * (decl["run_seconds"] + 15) < 3420


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in spec.scrubbed_env().items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "core-batch64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
