"""Execution backends: which engine computes the machine-local steps.

The reproduction's primary metric is communication rounds (see
DESIGN.md), which the simulator measures exactly regardless of how the
*local* computation is executed.  An :class:`ExecutionBackend` names one
engine; both are held to the same contract — **byte-identical ledgers,
digests and trace events** — enforced by the cross-backend equivalence
suite in ``tests/perf``:

* ``reference`` (alias ``scalar``) — the scalar engine; per-edge Python
  loops, the ground truth the columnar engine is diffed against;
* ``inproc-columnar`` (alias ``columnar``) — the NumPy columnar engine
  of :mod:`repro.perf` (the production default).

A backend is nothing more than a name for one setting of the fast-path
switch (:mod:`repro.perf.config`): selecting one means running under
``override_fast_path(backend.fast)``.

Backend selection goes through :func:`resolve_backend` — explicit
``backend=`` argument, then ``fast=``, then a scenario's ``backend``
field, then the ``REPRO_BACKEND`` environment variable.  With none of
them set the ambient fast-path switch decides, whose environment layer
is :func:`backend_from_env` (``REPRO_BACKEND`` before ``REPRO_FAST``).
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

#: Accepted spellings per canonical backend name.
BACKEND_ALIASES: Dict[str, str] = {
    "reference": "reference",
    "scalar": "reference",
    "inproc-columnar": "inproc-columnar",
    "columnar": "inproc-columnar",
}


def backend_names() -> List[str]:
    """Canonical backend names, stable order (reference first)."""
    return list(_BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    """The backend registered under ``name`` or an alias.

    Raises ``ValueError`` naming the known backends on an unknown name.
    """
    canonical = BACKEND_ALIASES.get(name.strip().lower())
    if canonical is None:
        known = ", ".join(sorted(BACKEND_ALIASES))
        raise ValueError(
            f"unknown execution backend {name!r} (known backends and "
            f"aliases: {known})"
        )
    return _BACKENDS[canonical]


def _backend_env_pin() -> Optional[ExecutionBackend]:
    """The backend ``REPRO_BACKEND`` names, or ``None`` when it is unset."""
    name = os.environ.get("REPRO_BACKEND", "").strip()
    return get_backend(name) if name else None


def backend_from_env() -> ExecutionBackend:
    """The backend the environment selects — the one place it is read.

    ``REPRO_BACKEND`` wins; otherwise ``REPRO_FAST`` decides (unset or
    truthy → columnar; ``""``/``0``/``false``/``no`` → reference).  The
    fast-path switch's environment layer is this function's ``fast``, so
    the engine that runs and the engine reported always agree.
    """
    pinned = _backend_env_pin()
    if pinned is not None:
        return pinned
    value = os.environ.get("REPRO_FAST")
    if value is not None and value.strip() in ("", "0", "false", "no"):
        return REFERENCE
    return COLUMNAR


def resolve_backend(
    backend: Optional[str] = None,
    fast: Optional[bool] = None,
    scenario: Optional[str] = None,
) -> Optional[ExecutionBackend]:
    """Resolve the backend for a run; ``None`` means "defer to ambient".

    Precedence (highest first): the explicit ``backend`` argument, the
    explicit ``fast`` argument, the scenario's ``backend`` field, the
    ``REPRO_BACKEND`` environment variable.  When none of them pins a
    backend the result is ``None`` and the caller keeps the dynamic
    behaviour: every operation consults the ambient fast-path switch
    (:func:`repro.perf.config.fast_path_enabled`) at call time.
    """
    if backend is not None:
        return get_backend(backend)
    if fast is not None:
        return COLUMNAR if fast else REFERENCE
    if scenario is not None:
        return get_backend(scenario)
    return _backend_env_pin()
