"""Columnar fast path for the simulator and the §5/§6 protocols.

The paper's guarantees are *round counts*; this package is about the
other axis — wall-clock speed of the simulation itself.  It provides:

* :mod:`repro.perf.config` — the fast-path switch, fixed per network by
  naming an execution backend (``backend=``, ``--backend`` or
  ``REPRO_BACKEND``; see :mod:`repro.sim.executor`);
* :mod:`repro.perf.columnar` — the resident columnar Euler state: every
  machine's MST edges and tracked vertices in NumPy columns stacked
  across the fleet, with each Lemma 5.9 phase (a script's cuts, or its
  links) composed by :class:`repro.euler.vectorized.PhaseMap` and
  applied in one pass over all machines;
* local kernels that the protocols dispatch to on the fast path: the
  §6.2 candidate scan (:mod:`repro.perf.components`), the Borůvka
  initialisers' min-outgoing-edge scan (:mod:`repro.perf.init_columnar`)
  and the contracted-clique scans (:mod:`repro.perf.cclique_columnar`).

Every protocol's sends are written once, in its own module: no function
here calls a communication primitive
(``tests/perf/test_no_wire_in_perf.py``).

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
