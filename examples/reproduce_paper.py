"""One-shot artifact: regenerate every table and write a report.

Runs every bench under benchmarks/ and stitches
benchmarks/results/*.txt into REPRODUCTION_REPORT.md — the single file a
reviewer reads next to EXPERIMENTS.md.

Run:  python examples/reproduce_paper.py        (several minutes)
      python examples/reproduce_paper.py --skip-benches   (reuse tables)
"""

import os
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS = os.path.join(ROOT, "benchmarks", "results")
REPORT = os.path.join(ROOT, "REPRODUCTION_REPORT.md")

ORDER = [
    ("Theorem 4.1 (Lenzen)", "theorem_4_1_lenzen"),
    ("Lemma 4.2 (Rerouting)", "lemma_4_2_rerouting"),
    ("Theorem 5.1 (single update)", "theorem_5_1_single_update"),
    ("Theorem 5.8 (initialisation)", "theorem_5_8_init"),
    ("Lemma 5.9 (k-way merge)", "lemma_5_9_kway"),
    ("Theorem 6.1 — additions", "theorem_6_1_additions"),
    ("Theorem 6.1 — deletions", "theorem_6_1_deletions"),
    ("Theorem 6.1 — space", "space_usage"),
    ("Theorem 7.1 (lower bound)", "theorem_7_1_lowerbound"),
    ("Theorem 8.1 — MPC init", "theorem_8_1_mpc_init"),
    ("Theorem 8.1 — MPC batches", "theorem_8_1_mpc_batches"),
    ("Baselines", "baseline_comparison"),
    ("Ablation — CC engine", "ablation_cc_engine"),
    ("Ablation — rerouting", "ablation_rerouting"),
    ("Ablation — decomposition", "ablation_decomposition"),
    ("Round breakdown", "round_breakdown"),
    ("Queries", "query_costs"),
    ("Bandwidth sensitivity", "bandwidth_sensitivity"),
    ("Workload sensitivity", "workload_sensitivity"),
    ("Sketch comparison", "sketch_comparison"),
    ("Vectorized kernels", "vectorized_labels"),
    ("Engine speedup (columnar vs reference)", "fast_path_speedup"),
    ("Engine speedup — Theorem 5.8 init", "theorem_5_8_init_fast"),
    ("Throughput", "throughput"),
    ("Keeping up (title question)", "keeping_up"),
    ("Figure 1", "figure_1_euler_tour"),
    ("Figures 2-3", "figures_2_3_decomposition"),
    ("Figure 4", "figure_4_brackets"),
]


def main() -> int:
    if "--skip-benches" not in sys.argv:
        print("running the benchmark harness (this regenerates every table)...")
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks/", "-q"],
            cwd=ROOT,
        )
        if proc.returncode != 0:
            print("benchmark run failed", file=sys.stderr)
            return proc.returncode
        print(f"benchmarks done in {time.time() - t0:.0f}s")

    parts = [
        "# Reproduction report",
        "",
        "Regenerated by `python examples/reproduce_paper.py`.",
        "Interpretation and paper-vs-measured discussion: see EXPERIMENTS.md.",
        "",
    ]
    for title, name in ORDER:
        path = os.path.join(RESULTS, f"{name}.txt")
        if not os.path.exists(path):
            parts.append(f"## {title}\n\n*(missing: {name}.txt)*\n")
            continue
        with open(path) as f:
            body = f.read().rstrip()
        parts.append(f"## {title}\n\n```\n{body}\n```\n")
    with open(REPORT, "w") as f:
        f.write("\n".join(parts) + "\n")
    print(f"wrote {os.path.abspath(REPORT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
