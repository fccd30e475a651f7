"""Measurement harness for the lower-bound experiment.

Runs the batch-dynamic algorithm against an :class:`AdversarySequence`
and records, per batch, the rounds spent and the words flowing into the
machine hosting ``u`` — the quantity the entropy argument lower-bounds by
Ω(b) bits = Ω(b / log n) words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.api import DynamicMST
from repro.graphs.generators import RngLike, as_rng
from repro.graphs.graph import WeightedGraph
from repro.lowerbound.adversary import build_adversary_sequence


@dataclass
class BitFlowMeter:
    """Per-batch measurements of one adversary run."""

    k: int
    delta: float
    b: int
    rounds_per_batch: List[int] = field(default_factory=list)
    u_ingress_per_batch: List[int] = field(default_factory=list)
    hard_batches: List[int] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return sum(self.rounds_per_batch)

    @property
    def hard_rounds(self) -> List[int]:
        return [self.rounds_per_batch[i] for i in self.hard_batches]

    @property
    def hard_u_ingress(self) -> List[int]:
        return [self.u_ingress_per_batch[i] for i in self.hard_batches]

    def summary(self) -> str:
        hr = self.hard_rounds
        hi = self.hard_u_ingress
        return (
            f"k={self.k} delta={self.delta} b={self.b}: "
            f"total_rounds={self.total_rounds}, "
            f"hard-batch rounds mean={np.mean(hr):.1f}, "
            f"u-ingress words mean={np.mean(hi):.1f} (bound Ω(b)={self.b})"
        )


def run_lower_bound_experiment(
    initial: WeightedGraph,
    k: int,
    delta: float,
    rng: RngLike = None,
    pairs: Optional[int] = None,
    engine: str = "sample_gather",
) -> BitFlowMeter:
    """Execute the adversary against the real algorithm and meter it."""
    rng = as_rng(rng)
    seq = build_adversary_sequence(initial, k, delta, pairs=pairs, rng=rng)
    dm = DynamicMST.build(initial, k, rng=rng, init="free", engine=engine)
    u_machine = dm.vp.home(seq.u)
    meter = BitFlowMeter(k=k, delta=delta, b=seq.b, hard_batches=list(seq.hard_batches))
    for batch in seq.stream:
        if not batch:
            meter.rounds_per_batch.append(0)
            meter.u_ingress_per_batch.append(0)
            continue
        before_rounds = dm.net.ledger.rounds
        before_ingress = dm.net.ingress_words[u_machine]
        dm.apply_batch(batch)
        meter.rounds_per_batch.append(dm.net.ledger.rounds - before_rounds)
        meter.u_ingress_per_batch.append(
            dm.net.ingress_words[u_machine] - before_ingress
        )
    return meter
