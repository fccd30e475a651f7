"""The engine switch: the columnar fast path, on or off.

Three layers, highest priority first:

1. an active :func:`override_fast_path` context (used by
   :class:`~repro.core.api.DynamicMST` instances built with an explicit
   ``backend=`` name — every harness and CLI pins the engine that way —
   or its boolean shorthand ``fast=``, which the equivalence tests use);
2. a process-wide value installed with :func:`set_fast_path`;
3. the environment, read by :func:`repro.sim.executor.backend_from_env`:
   ``REPRO_BACKEND`` (``reference``/``scalar`` is off, the columnar
   names are on) before ``REPRO_FAST`` (unset means **on**: the columnar
   path is the production path; the scalar path is the reference the
   equivalence suite compares against).

An :class:`~repro.sim.executor.ExecutionBackend` is a name for one
setting of this switch; selecting one is ``override_fast_path(b.fast)``.
Both paths are always available — nothing is compiled out — so a single
process can run them back to back and compare ledgers byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

#: Below this many rows, array packing costs more than scalar loops save;
#: the columnar engine still runs (correctness is size-independent) but
#: oracle-side helpers use it as their vectorize/loop crossover.
VECTOR_MIN_ROWS = 64

#: Below this many *affected* rows, a structural batch's pack/scatter
#: cycle costs more than the scalar per-edge loops it replaces; the
#: update-path dispatch in :func:`repro.core.scripts.run_structural_batch`
#: falls back to the scalar engine under this estimate.  Both engines are
#: wire-identical, so the gate can never change a ledger — only which
#: local code computes it.
UPDATE_MIN_ROWS = 8192

_process_default: Optional[bool] = None
_override_stack: List[bool] = []


def _env_default() -> bool:
    from repro.sim.executor import backend_from_env

    return backend_from_env().fast


def fast_path_enabled() -> bool:
    """Is the columnar fast path active at this call site?"""
    if _override_stack:
        return _override_stack[-1]
    if _process_default is not None:
        return _process_default
    return _env_default()


def set_fast_path(enabled: Optional[bool]) -> None:
    """Install a process-wide default (``None`` restores the env default)."""
    # simlint: disable=SIM002 harness-level engine toggle, not simulated machine state; both settings charge identical ledgers
    global _process_default
    _process_default = enabled


@contextmanager
def override_fast_path(enabled: Optional[bool]) -> Iterator[None]:
    """Force the fast path on/off inside the block (``None`` is a no-op)."""
    if enabled is None:
        yield
        return
    # simlint: disable=SIM002 harness-level engine toggle, not simulated machine state; both settings charge identical ledgers
    _override_stack.append(enabled)
    try:
        yield
    finally:
        _override_stack.pop()
