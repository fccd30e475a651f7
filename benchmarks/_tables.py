"""Table emission for the benchmark harness.

Every bench computes the series a paper claim predicts, prints it, and
persists it under benchmarks/results/ so EXPERIMENTS.md can cite the
numbers.  Most tables count rounds, messages and words (the paper's own
metric) and regenerate byte-identically; four time the host instead
(``fast_path_speedup``, ``theorem_5_8_init_fast``, ``throughput`` and
``vectorized_labels``).  Wall clock as a performance claim belongs to
``bench/``.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_table(name: str, title: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [list(r) for r in rows]
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    text = "\n".join(lines)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
    print("\n" + text)
    return text
