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
The switch is the only engine selection; no protocol picks its path by
input size.
"""

from __future__ import annotations

from typing import Any


def fast_path_enabled(net: Any) -> bool:
    """Does ``net`` run the columnar fast path?"""
    return bool(net.fast)
