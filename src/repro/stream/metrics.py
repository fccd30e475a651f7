"""Staleness quantiles for stream reports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[int], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a sequence; 0 if empty."""
    if not values:
        return 0.0
    s = sorted(values)
    idx = min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))
    return float(s[idx])
