"""Compare two result files of ``bench/run.py --out``.

    python bench/compare.py BASE.json NEW.json

Prints one row per (workload, end-to-end metric):

* ``ok`` — NEW's median is within the metric's bound of BASE's;
* ``improved`` / ``regressed`` — it moved past the bound;
* ``unresolved`` — either file's quartile spread is wider than the bound,
  so a move of that size cannot be told from noise (unless every NEW run
  beats every BASE run, which reads ``improved``);
* ``changed`` — an exact metric or the ledger digest differs.

The bound is the relative ``bound`` of ``BENCHMARK.json``; latency
metrics (unit ``ms``) never get less than ``spec.LATENCY_FLOOR_MS``.
Exits 1 on any ``regressed`` or ``changed`` row, or when NEW is not
correct; 2 when the files were made with different seeds or run lengths.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

import spec

Row = Tuple[str, str, str, str]


def _allowed(decl: dict, base: float) -> float:
    allowed = decl["bound"] * abs(base)
    if decl["unit"] == "ms":
        allowed = max(allowed, spec.LATENCY_FLOOR_MS)
    return allowed


def classify(decl: dict, a: dict, b: dict) -> str:
    """One end-to-end metric: ``a`` and ``b`` carry median, q1, q3, values."""
    lower = decl["better"] == "lower"
    allowed = _allowed(decl, a["median"])
    worse = b["median"] - a["median"] if lower else a["median"] - b["median"]
    if max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > allowed:
        if lower and max(b["values"]) < min(a["values"]):
            return "improved"
        if not lower and min(b["values"]) > max(a["values"]):
            return "improved"
        return "unresolved"
    if worse > allowed:
        return "regressed"
    if worse < -allowed:
        return "improved"
    return "ok"


def _exact_values(w: dict, name: str) -> List[float]:
    return sorted({layer[name]["value"] for layer in w["per_layer"] if name in layer})


def compare(a: dict, b: dict, decl: dict) -> Tuple[List[Row], int]:
    """All rows for BASE ``a`` against NEW ``b``, and the exit status."""
    rows: List[Row] = []
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"].get(workload)
        if wb is None:
            rows.append((workload, "*", "changed", "missing from NEW"))
            continue
        for m in decl["end_to_end"]:
            name = m["name"]
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            status = classify(m, ma, mb)
            change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
            rows.append((
                workload, name, status,
                f"{ma['median']:.5g} [{ma['q1']:.5g}, {ma['q3']:.5g}] -> "
                f"{mb['median']:.5g} [{mb['q1']:.5g}, {mb['q3']:.5g}] {m['unit']} "
                f"({change:+.1%}, bound {m['bound']:.0%})",
            ))
        for name in spec.EXACT:
            va, vb = _exact_values(wa, name), _exact_values(wb, name)
            rows.append((workload, name, "ok" if va == vb else "changed", f"{va} -> {vb}"))
        same = wa["ledger_digests"] == wb["ledger_digests"]
        rows.append((
            workload, "ledger_digest", "ok" if same else "changed",
            f"{wa['ledger_digests']} -> {wb['ledger_digests']}",
        ))
        if not wb["correct"]:
            rows.append((workload, "correct", "changed", "NEW is not correct"))
        for why in wb["invalid"]:
            rows.append((workload, "invalid", "note", why))
    bad = any(status in ("regressed", "changed") for _, _, status, _ in rows)
    return rows, int(bad)


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare two bench result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(args.base) as fa, open(args.new) as fb:
        a, b = json.load(fa), json.load(fb)
    settings: Dict[str, tuple] = {
        key: (a["meta"][key], b["meta"][key]) for key in ("seed", "seconds")
    }
    for key, (va, vb) in settings.items():
        if va != vb:
            print(f"compare: files differ in {key} ({va} vs {vb})", file=sys.stderr)
            return 2
    rows, status = compare(a, b, spec.declaration())
    for workload, metric, verdict, text in rows:
        print(f"{workload:14s} {metric:28s} {verdict:10s} {text}")
    return status


if __name__ == "__main__":
    sys.exit(main())
