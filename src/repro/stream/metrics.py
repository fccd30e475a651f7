"""Frontier arithmetic: staleness quantiles and throughput points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence


def percentile(values: Sequence[int], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a sequence; 0 if empty."""
    if not values:
        return 0.0
    s = sorted(values)
    idx = min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))
    return float(s[idx])


@dataclass(frozen=True)
class FrontierPoint:
    """One (shape × coalescing) point on the frontier plot.

    ``updates_per_s`` is raw admitted arrivals per wall second (the work
    the stream offered, not the post-coalescing residue — so coalescing
    improvements show up as throughput, not as a smaller denominator);
    ``p50_ticks``/``p99_ticks`` are staleness quantiles in arrival
    ticks; ``rounds_per_update`` charges the ledger's rounds against
    admitted arrivals.
    """

    shape: str
    coalesced: bool
    updates_per_s: float
    p50_ticks: float
    p99_ticks: float
    rounds_per_update: float
    shipped_fraction: float
    forest_digest: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "shape": self.shape,
            "coalesced": self.coalesced,
            "updates_per_s": self.updates_per_s,
            "p50_ticks": self.p50_ticks,
            "p99_ticks": self.p99_ticks,
            "rounds_per_update": self.rounds_per_update,
            "shipped_fraction": self.shipped_fraction,
            "forest_digest": self.forest_digest,
        }
