"""Baselines the paper's algorithm is compared against.

* :class:`SequentialDynamicMST` — single-machine oracle (sorted-edge
  Kruskal recompute per batch); the ground truth for every test and the
  wall-clock reference;
* :class:`RecomputeBaseline` — the *static* cluster approach: rebuild the
  MST from scratch with the Theorem 5.8 protocol after every batch
  (Θ(n/k + log n) rounds per batch, however small the batch);
* :class:`OneAtATimeBaseline` — the Italiano-et-al.-style dynamic
  approach: O(1) rounds per *individual* update (§5.4), i.e. Θ(b) rounds
  for a size-b batch.  (Italiano et al. maintain an approximate MST; our
  §5.4 exact single-update algorithm has the same round profile, which is
  what the comparison measures.)
"""

from repro.baselines.sequential import SequentialDynamicMST
from repro.baselines.recompute import RecomputeBaseline
from repro.baselines.one_at_a_time import OneAtATimeBaseline

__all__ = [
    "SequentialDynamicMST",
    "RecomputeBaseline",
    "OneAtATimeBaseline",
]
