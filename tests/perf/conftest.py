"""Shared fixtures for the perf suite.

The equivalence tests here run deliberately tiny inputs, on which the
contracted-clique kernels' vectorize/loop crossover (``VECTOR_MIN_ROWS``)
would keep every machine-local MSF on the scalar loop, silently turning
their engine comparisons into scalar-vs-scalar no-ops.  Pin the crossover
to 0 so the columnar kernels engage at any size.  The structural batch
needs no pin: the engine a run names applies every batch.
"""

import pytest

from repro.perf import config


@pytest.fixture(autouse=True)
def _force_columnar_kernels(monkeypatch):
    monkeypatch.setattr(config, "VECTOR_MIN_ROWS", 0)
