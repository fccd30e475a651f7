"""Streaming ingestion in front of the batch-dynamic core.

The paper fixes the batch size at Θ(k) (Theorem 6.1) / Θ(S) (MPC §8)
and leaves *when to cut a batch* to the system.  This package is that
system: a deterministic admission buffer + coalescer
(:mod:`repro.stream.coalescer`), one size-or-deadline cut rule
(:mod:`repro.stream.policy`), and the tick-clocked ingestor
(:mod:`repro.stream.ingest`) that rides the throughput/staleness
frontier.  Scheduling is host-side and charges zero rounds; the
ledger-charged core is untouched.

    >>> from repro.core import DynamicMST
    >>> from repro.stream import make_shape
    >>> stream = make_shape("sliding-window", seed=0, ticks=12, rate=4)
    >>> dm = DynamicMST.build(stream.initial, k=8, rng=0, init="free")
    >>> report = dm.ingest(stream, coalesce=True)
    >>> report.shipped <= report.admitted
    True
"""

from repro.stream.coalescer import AdmissionBuffer, CoalescingBuffer, CutResult
from repro.stream.ingest import StreamIngestor, StreamReport
from repro.stream.metrics import FrontierPoint, percentile
from repro.stream.policy import DEADLINE_TICKS, cut_reason
from repro.stream.shapes import SHAPES, make_shape, shape_names

__all__ = [
    "AdmissionBuffer",
    "CoalescingBuffer",
    "CutResult",
    "StreamIngestor",
    "StreamReport",
    "FrontierPoint",
    "percentile",
    "DEADLINE_TICKS",
    "cut_reason",
    "SHAPES",
    "make_shape",
    "shape_names",
]
