"""Execution backends: which engine computes the machine-local steps.

The reproduction's primary metric is communication rounds (see
DESIGN.md), which the simulator measures exactly regardless of how the
*local* computation is executed.  An :class:`ExecutionBackend` names one
engine; both are held to the same contract — **byte-identical ledgers,
digests and trace events** — enforced by the cross-backend equivalence
suite in ``tests/perf``:

* ``reference`` — the scalar engine; per-edge Python loops, the ground
  truth the columnar engine is diffed against;
* ``inproc-columnar`` — the NumPy columnar engine of :mod:`repro.perf`
  (the production default).

A backend name is the only engine selector: ``backend=`` in code,
``--backend`` on the CLI and ``REPRO_BACKEND`` in the environment, each
accepting exactly those two names.  A backend is one setting of the
fast-path switch (:mod:`repro.perf.config`), fixed when a network is
built: :class:`~repro.sim.network.Network` takes ``fast=`` or resolves
``REPRO_BACKEND`` once through :func:`backend_from_env`, and a
:class:`~repro.core.api.DynamicMST` builds its network — and with it its
machines' storage — from the backend it is given.

:func:`resolve_backend` resolves a run's explicit pin — a ``backend=``
name, then ``REPRO_BACKEND`` — for callers that record which backend
was named (``None`` when neither is set).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ExecutionBackend:
    """One engine: its canonical ``name`` and fast-path setting."""

    name: str
    fast: bool


REFERENCE = ExecutionBackend("reference", fast=False)
COLUMNAR = ExecutionBackend("inproc-columnar", fast=True)

_BACKENDS: Dict[str, ExecutionBackend] = {b.name: b for b in (REFERENCE, COLUMNAR)}


def backend_names() -> List[str]:
    """Canonical backend names, stable order (reference first)."""
    return list(_BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    """The backend registered under ``name``.

    Raises ``ValueError`` naming the known backends on any other name.
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown execution backend {name!r} (known backends: "
            f"{', '.join(_BACKENDS)})"
        )
    return backend


def _backend_env_pin() -> Optional[ExecutionBackend]:
    """The backend ``REPRO_BACKEND`` names, or ``None`` when it is unset."""
    name = os.environ.get("REPRO_BACKEND", "").strip()
    return get_backend(name) if name else None


def backend_from_env() -> ExecutionBackend:
    """The backend the environment selects — the one place it is read.

    ``REPRO_BACKEND`` names it; unset or empty means columnar.  The
    fast-path switch's environment layer is this function's ``fast``, so
    the engine that runs and the engine reported always agree.
    """
    return _backend_env_pin() or COLUMNAR


def resolve_backend(backend: Optional[str] = None) -> Optional[ExecutionBackend]:
    """Resolve the backend a run names; ``None`` when nothing names one.

    The explicit ``backend`` argument wins over the ``REPRO_BACKEND``
    environment variable.  When neither pins a backend the result is
    ``None``; a network built then resolves the environment's default
    (:func:`backend_from_env`) once, at construction.
    """
    if backend is not None:
        return get_backend(backend)
    return _backend_env_pin()
