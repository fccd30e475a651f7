"""Columnar fast path for the simulator and the §5/§6 protocols.

The paper's guarantees are *round counts*; this package is about the
other axis — wall-clock speed of the simulation itself.  It provides:

* :mod:`repro.perf.config` — the fast-path switch, fixed per network by
  naming an execution backend (``backend=``, ``--backend`` or
  ``REPRO_BACKEND``; see :mod:`repro.sim.executor`);
* :mod:`repro.perf.columnar` — the resident columnar Euler state: every
  machine's MST edges and tracked vertices in NumPy columns stacked
  across the fleet, with each Lemma 5.9 step applied once over all
  machines by the verified kernels of :mod:`repro.euler.vectorized`.

The contract is strict equivalence: with the fast path on or off, every
protocol produces **byte-identical round/message/word ledgers** and
identical MST state (the charge transcript is compared by digest in
``tests/perf``).  The fast path only changes how local computation and
message bookkeeping are *executed*, never what is *charged*.
"""

from repro.perf.config import VECTOR_MIN_ROWS, fast_path_enabled

__all__ = [
    "VECTOR_MIN_ROWS",
    "fast_path_enabled",
]
