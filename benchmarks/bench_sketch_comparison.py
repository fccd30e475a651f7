"""Comparison: Euler-tour exact MST vs sketch-based connectivity.

The related work (Dhulipala et al.) maintains batch-dynamic
*connectivity* with AGM sketches; the paper's remark is that its exact
MST needs no sketching outside the deletion subroutine.  This bench puts
numbers on the trade: per-vertex state (words) and query capability.
"""

import numpy as np

from _tables import emit_table
from repro.cclique import SketchConnectivity
from repro.core import DynamicMST
from repro.graphs import random_weighted_graph
from repro.sim.message import WORDS_ET_EDGE


def test_sketch_vs_euler_state_table():
    rows = []
    for n in (64, 256, 1024):
        rng = np.random.default_rng(n)
        g = random_weighted_graph(n, 3 * n, rng)
        dm = DynamicMST.build(g, 8, rng=rng, init="free")
        # Euler per-vertex state: MST incidences + one witness per vertex.
        euler_words = sum(
            WORDS_ET_EDGE * (st.mst_count() + len(st.witness_items()))
            for st in dm.states
        ) / n
        sc = SketchConnectivity(g, rng=rng)
        sc.components()
        sketch_words = sc.words_per_vertex()
        rows.append((n, round(euler_words, 1), sketch_words,
                     "exact MST + weights", "connectivity only"))
    emit_table(
        "sketch_comparison",
        "Euler-tour exact MST vs AGM-sketch connectivity: per-vertex words",
        ["n", "euler_words_per_vertex", "sketch_words_per_vertex",
         "euler_answers", "sketch_answers"],
        rows,
    )
    # Sketches pay polylog^2 words for a weaker answer.
    for r in rows:
        assert r[2] > r[1]
