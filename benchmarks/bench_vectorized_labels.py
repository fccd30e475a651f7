"""Throughput: scalar vs vectorized Euler label kernels.

The per-machine transforms are the inner loop of every structural batch;
this measures the crossover where the NumPy kernels pay off (the
scale-up path documented in repro/euler/vectorized.py).
"""

import numpy as np

from _tables import emit_table
from repro.euler.labels import SplitSpec, split_label
from repro.euler.vectorized import split_labels


def _scalar(labels, spec):
    return [split_label(int(w), spec) for w in labels]


def _vector(labels, spec):
    return split_labels(labels, spec)


def test_vectorized_throughput_table():
    import time

    rows = []
    for n in (100, 10_000, 1_000_000):
        spec = SplitSpec(1, n - 2, n, 0, 1)
        labels = np.array([w for w in range(n) if w not in (1, n - 2)])
        t0 = time.perf_counter()
        _scalar(labels[: min(n, 100_000)], spec)
        t_scalar = (time.perf_counter() - t0) * n / min(n, 100_000)
        t0 = time.perf_counter()
        _vector(labels, spec)
        t_vector = time.perf_counter() - t0
        rows.append((n, f"{t_scalar*1e3:.2f}ms", f"{t_vector*1e3:.2f}ms",
                     round(t_scalar / max(t_vector, 1e-9), 1)))
    emit_table(
        "vectorized_labels",
        "Scalar vs NumPy split-label kernel (per full-tour transform)",
        ["labels", "scalar", "vectorized", "speedup"],
        rows,
    )
    assert rows[-1][3] > 5  # vectorization pays off at scale
