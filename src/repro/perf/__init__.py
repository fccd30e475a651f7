"""Columnar fast path for the simulator and the §5/§6 protocols.

The paper's guarantees are *round counts*; this package is about the
other axis — wall-clock speed of the simulation itself.  It provides:

* :mod:`repro.perf.config` — the fast-path switch, set by naming an
  execution backend (``backend=``, ``--backend`` or ``REPRO_BACKEND``;
  see :mod:`repro.sim.executor`);
* :mod:`repro.perf.columnar` — batched application of Euler label
  scripts over per-machine NumPy arrays, using the verified kernels of
  :mod:`repro.euler.vectorized` instead of per-edge Python calls.

The contract is strict equivalence: with the fast path on or off, every
protocol produces **byte-identical round/message/word ledgers** and
identical MST state (the charge transcript is compared by digest in
``tests/perf``).  The fast path only changes how local computation and
message bookkeeping are *executed*, never what is *charged*.
"""

from repro.perf.config import (
    VECTOR_MIN_ROWS,
    fast_path_enabled,
    override_fast_path,
)

__all__ = [
    "VECTOR_MIN_ROWS",
    "fast_path_enabled",
    "override_fast_path",
]
