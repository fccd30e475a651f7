"""The streaming ingestor: the tick loop that drives arrivals into batches.

:class:`StreamIngestor` replays an :class:`~repro.graphs.streams.ArrivalStream`
against a live :class:`~repro.core.api.DynamicMST` (or its MPC subclass)
under the cut rule of :mod:`repro.stream.policy`.  Time is modelled in
*ticks*, one tick per communication round — the convention of
:mod:`repro.core.stream_driver`:

* arrivals whose tick has come are admitted into the buffer (raw FIFO or
  coalescing, see :mod:`repro.stream.coalescer`);
* the cut rule inspects the queue and either waits (the clock advances
  one tick) or cuts at most one batch capacity; a cut's sub-batches are
  applied back-to-back and the clock advances by
  ``max(1, rounds charged)``;
* an update's *staleness* is the tick its batch completes minus the tick
  it arrived; coalesced-away updates resolve at the moment the
  absorbing update is admitted.

Everything here is host-side bookkeeping: the ledger sees exactly the
``apply_batch`` calls and nothing else, so scheduling charges zero
rounds, and the whole loop is a deterministic function of (stream,
coalescing, capacity) — wall-clock is read only to report throughput,
never to decide anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.graphs.mst import forest_digest
from repro.graphs.streams import ArrivalStream
from repro.stream.coalescer import AdmissionBuffer, CoalescingBuffer
from repro.stream.metrics import FrontierPoint, percentile
from repro.stream.policy import cut_reason


@dataclass
class StreamReport:
    """Outcome and cost of one streamed run."""

    coalesced: bool
    admitted: int
    shipped: int
    absorbed: int
    cuts: int
    batches: int
    rounds: int
    messages: int
    words: int
    elapsed_ticks: int
    wall_s: float
    p50_ticks: float
    p99_ticks: float
    peak_queue_depth: int
    msf_weight: float
    forest_digest: str
    cut_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def updates_per_s(self) -> float:
        """Raw admitted arrivals per wall second (offered-load throughput)."""
        return self.admitted / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def rounds_per_update(self) -> float:
        return self.rounds / self.admitted if self.admitted else 0.0

    def frontier_point(self, shape: str) -> FrontierPoint:
        return FrontierPoint(
            shape=shape,
            coalesced=self.coalesced,
            updates_per_s=self.updates_per_s,
            p50_ticks=self.p50_ticks,
            p99_ticks=self.p99_ticks,
            rounds_per_update=self.rounds_per_update,
            shipped_fraction=self.shipped / self.admitted if self.admitted else 0.0,
            forest_digest=self.forest_digest,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "coalesced": self.coalesced,
            "admitted": self.admitted,
            "shipped": self.shipped,
            "absorbed": self.absorbed,
            "cuts": self.cuts,
            "batches": self.batches,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "elapsed_ticks": self.elapsed_ticks,
            "wall_s": self.wall_s,
            "updates_per_s": self.updates_per_s,
            "rounds_per_update": self.rounds_per_update,
            "p50_ticks": self.p50_ticks,
            "p99_ticks": self.p99_ticks,
            "peak_queue_depth": self.peak_queue_depth,
            "msf_weight": self.msf_weight,
            "forest_digest": self.forest_digest,
            "cut_reasons": dict(self.cut_reasons),
        }


class StreamIngestor:
    """Admission buffer + batch scheduler in front of a dynamic-MST core."""

    def __init__(self, dm, coalesce: bool = True) -> None:
        self.dm = dm
        self.capacity = dm.batch_capacity
        self.coalesce = coalesce
        self.buffer = CoalescingBuffer() if coalesce else AdmissionBuffer()

    def run(self, arrivals: ArrivalStream) -> StreamReport:
        """Replay the whole stream; returns the run's frontier numbers."""
        dm, buf, capacity = self.dm, self.buffer, self.capacity
        ledger = dm.net.ledger
        recorder = ledger.recorder
        arr = arrivals.arrivals
        i = 0
        now = 0
        cuts = 0
        batches_applied = 0
        peak_queue = 0
        latencies: List[int] = []
        reasons: Dict[str, int] = {}
        run_before = ledger.snapshot()
        t0 = time.perf_counter()  # simlint: disable=SIM003 host-side throughput report; never feeds a scheduling or protocol decision
        while i < len(arr) or buf.pending_cost:
            while i < len(arr) and arr[i].tick <= now:
                buf.admit(arr[i].update, arr[i].tick, now)
                i += 1
            depth = buf.pending_cost
            peak_queue = max(peak_queue, depth)
            exhausted = i >= len(arr)
            oldest = buf.oldest_tick
            age = now - oldest if oldest is not None else 0
            reason = cut_reason(depth, age, capacity)
            if reason is None and exhausted and depth:
                reason = "flush"
            if reason is None:
                if exhausted:
                    break
                # Nothing to do this tick: idle forward (jump straight to
                # the next arrival when the queue is empty).
                now = arr[i].tick if depth == 0 else now + 1
                continue
            cut = buf.cut(capacity)
            before = ledger.snapshot()
            for batch in cut.batches:
                dm.apply_batch(batch)
                batches_applied += 1
            delta = ledger.since(before)
            now += max(1, delta.rounds)
            for t in cut.shipped_ticks:
                latencies.append(max(now - t, 0))
            latencies.extend(buf.drain_resolved())
            cuts += 1
            reasons[reason] = reasons.get(reason, 0) + 1
            if recorder is not None:
                recorder.emit(
                    "sched_cut",
                    reason=reason,
                    raw=len(cut.shipped_ticks),
                    shipped=cut.shipped,
                    queue_depth=buf.pending_cost,
                    tick=now,
                    oldest_age=age,
                    batches=len(cut.batches),
                )
        wall = time.perf_counter() - t0  # simlint: disable=SIM003 host-side throughput report; never feeds a scheduling or protocol decision
        latencies.extend(buf.drain_resolved())
        run_delta = ledger.since(run_before)
        report = StreamReport(
            coalesced=self.coalesce,
            admitted=buf.admitted,
            shipped=buf.admitted - buf.absorbed,
            absorbed=buf.absorbed,
            cuts=cuts,
            batches=batches_applied,
            rounds=run_delta.rounds,
            messages=run_delta.messages,
            words=run_delta.words,
            elapsed_ticks=now,
            wall_s=wall,
            p50_ticks=percentile(latencies, 50),
            p99_ticks=percentile(latencies, 99),
            peak_queue_depth=peak_queue,
            msf_weight=dm.total_weight(),
            forest_digest=forest_digest(dm.msf_edges()),
            cut_reasons=reasons,
        )
        if recorder is not None:
            recorder.emit(
                "stream_end",
                admitted=report.admitted,
                shipped=report.shipped,
                cuts=report.cuts,
                elapsed_ticks=report.elapsed_ticks,
                batches=report.batches,
                absorbed=report.absorbed,
                p50_ticks=report.p50_ticks,
                p99_ticks=report.p99_ticks,
            )
        return report
