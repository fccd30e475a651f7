"""The engine switch: the columnar fast path, on or off, per network.

An :class:`~repro.sim.executor.ExecutionBackend` is a name for one
setting of this switch, and a backend name is the only way to pick one
(``backend=``, ``--backend`` or ``REPRO_BACKEND``).  The setting is
fixed when a network is built — :class:`~repro.sim.network.Network`
resolves ``REPRO_BACKEND`` once unless a backend is named — and a
:class:`~repro.core.api.DynamicMST` picks its storage from the same
flag (:mod:`repro.core.state`), so an instance never switches engine
mid-run.  Every call site asks the network it is charging.

Both paths are always available — nothing is compiled out — so a single
process can run them side by side and compare ledgers byte for byte.
"""

from __future__ import annotations

from typing import Any

#: Below this many rows, array packing costs more than scalar loops save;
#: the columnar engine still runs (correctness is size-independent) but
#: oracle-side helpers use it as their vectorize/loop crossover.
VECTOR_MIN_ROWS = 64


def fast_path_enabled(net: Any) -> bool:
    """Does ``net`` run the columnar fast path?"""
    return bool(net.fast)
