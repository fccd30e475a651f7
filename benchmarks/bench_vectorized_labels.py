"""Throughput: scalar vs vectorized Euler label kernels.

The per-machine transforms are the inner loop of every structural batch.
This times one split (Lemma 5.6) over a whole tour, as the scalar
transform of :mod:`repro.euler.labels` and as the single-step NumPy
kernel, from 10^2 to 10^6 labels.  No engine runs the single-step
kernel: the reference engine and the oracle apply the scalar transform,
and the columnar engine composes a whole phase into one
:class:`repro.euler.vectorized.PhaseMap`, so the table measures what
vectorizing one transform buys, not a path the product takes.
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
