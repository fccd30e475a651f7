"""compare.py on synthetic regression, unresolved and exact-count cases."""

import copy
import json
import subprocess
import sys

import compare
import spec


def _metric(values):
    values = sorted(values)
    return {"values": values, "median": values[1], "q1": values[0], "q3": values[2]}


def _file(throughput=(300.0, 301.0, 302.0), p50=(1.00, 1.01, 1.02), rounds=7.8,
          digest="d0", cuts=26):
    metrics = {
        "setup_s": _metric([1.0, 1.01, 1.02]),
        "throughput_per_s": _metric(throughput),
        "latency_p50_ms": _metric(p50),
        "peak_rss_mb": _metric([77.0, 77.0, 77.1]),
    }
    layer = {name: {"value": 0, "unit": "count"} for name in spec.EXACT}
    layer["stream.cuts"]["value"] = cuts
    layer["sim.rounds_per_update"]["value"] = rounds
    workload = {
        "metrics": metrics, "per_layer": [layer], "ledger_digests": [digest],
        "correct": True, "invalid": [],
    }
    return {"meta": {"seed": 0, "seconds": 20}, "workloads": {"w": workload}}


def _verdicts(a, b):
    rows, status = compare.compare(a, b, spec.declaration())
    return {metric: verdict for _, metric, verdict, _ in rows}, status


def test_identical_files_are_ok():
    verdicts, status = _verdicts(_file(), _file())
    assert status == 0 and set(verdicts.values()) == {"ok"}


def test_throughput_drop_past_the_bound_is_a_regression():
    verdicts, status = _verdicts(_file(), _file(throughput=(150.0, 151.0, 152.0)))
    assert verdicts["throughput_per_s"] == "regressed" and status == 1
    verdicts, status = _verdicts(_file(), _file(throughput=(600.0, 601.0, 602.0)))
    assert verdicts["throughput_per_s"] == "improved" and status == 0


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = (200.0, 300.0, 400.0)
    verdicts, status = _verdicts(_file(), _file(throughput=noisy))
    assert verdicts["throughput_per_s"] == "unresolved" and status == 0
    verdicts, _ = _verdicts(_file(throughput=noisy), _file(throughput=(500.0, 510.0, 520.0)))
    assert verdicts["throughput_per_s"] == "improved"


def test_latency_floor_absorbs_sub_floor_moves():
    base = (0.20, 0.20, 0.21)
    verdicts, _ = _verdicts(_file(p50=base), _file(p50=(0.40, 0.40, 0.41)))
    assert verdicts["latency_p50_ms"] == "ok"
    verdicts, _ = _verdicts(_file(p50=base), _file(p50=(0.50, 0.50, 0.51)))
    assert verdicts["latency_p50_ms"] == "regressed"


def test_exact_counts_and_digests_must_not_move():
    verdicts, status = _verdicts(_file(), _file(rounds=7.9))
    assert verdicts["sim.rounds_per_update"] == "changed" and status == 1
    verdicts, status = _verdicts(_file(), _file(cuts=27))
    assert verdicts["stream.cuts"] == "changed" and status == 1
    verdicts, status = _verdicts(_file(), _file(digest="d1"))
    assert verdicts["ledger_digest"] == "changed" and status == 1


def test_cli_refuses_files_of_different_settings(tmp_path):
    a, b = _file(), copy.deepcopy(_file())
    b["meta"]["seed"] = 1
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    proc = subprocess.run(
        [sys.executable, str(spec.BENCH / "compare.py"), str(tmp_path / "a.json"),
         str(tmp_path / "b.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
