"""The engine switch: the columnar fast path, on or off.

An :class:`~repro.sim.executor.ExecutionBackend` is a name for one
setting of this switch, and a backend name is the only way to pick one
(``backend=``, ``--backend`` or ``REPRO_BACKEND``).  A call site reads
the switch in two layers, highest priority first:

1. an active :func:`override_fast_path` scope — the scope a
   :class:`~repro.core.api.DynamicMST` built with ``backend=`` opens
   around each of its operations (every harness and CLI pins the engine
   that way);
2. the environment, read by :func:`repro.sim.executor.backend_from_env`:
   ``REPRO_BACKEND``, with unset meaning **on** (the columnar path is
   the production path; the scalar path is the reference the
   equivalence suite compares against).

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

_override_stack: List[bool] = []


def fast_path_enabled() -> bool:
    """Is the columnar fast path active at this call site?"""
    if _override_stack:
        return _override_stack[-1]
    from repro.sim.executor import backend_from_env

    return backend_from_env().fast


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
