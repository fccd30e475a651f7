"""The streaming ingestor: the tick loop that drives arrivals into batches.

:class:`StreamIngestor` puts an admission buffer and the cut rule of
:mod:`repro.stream.policy` in front of a live
:class:`~repro.core.api.DynamicMST` (or its MPC subclass).  Time is
modelled in *ticks*, one tick per communication round; the ingestor's
``now`` is the project's one clock for streamed updates, and
:meth:`StreamIngestor.pump` is its one cut step:

* :meth:`StreamIngestor.admit` queues an arrival in the buffer (raw
  FIFO or coalescing, see :mod:`repro.stream.coalescer`);
* the cut rule inspects the queue and either waits (the caller idles
  the clock one tick) or cuts at most one batch capacity; a cut's
  sub-batches are applied back-to-back and the clock advances by
  ``max(1, rounds charged)``;
* an update's *staleness* is the tick its batch completes minus the tick
  it arrived; coalesced-away updates resolve at the moment the
  absorbing update is admitted.

:meth:`StreamIngestor.run` drives these steps from an
:class:`~repro.graphs.streams.ArrivalStream`; the serve daemon's
reducer drives them from the commands it admits.

Everything here is host-side bookkeeping: the ledger sees exactly the
``apply_batch`` calls and nothing else, so scheduling charges zero
rounds, and the whole loop is a deterministic function of (stream,
coalescing, capacity).  It never reads a clock, so two runs of one
stream on equal cores return equal :class:`StreamReport` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.graphs.mst import forest_digest
from repro.graphs.streams import ArrivalStream, Update
from repro.stream.coalescer import AdmissionBuffer, CoalescingBuffer, CutResult
from repro.stream.metrics import percentile
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
    p50_ticks: float
    p99_ticks: float
    peak_queue_depth: int
    msf_weight: float
    forest_digest: str
    cut_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def rounds_per_update(self) -> float:
        return self.rounds / self.admitted if self.admitted else 0.0


class StreamIngestor:
    """Admission buffer + batch scheduler in front of a dynamic-MST core."""

    def __init__(self, dm, coalesce: bool = True) -> None:
        self.dm = dm
        self.capacity = dm.batch_capacity
        self.coalesce = coalesce
        self.buffer = CoalescingBuffer() if coalesce else AdmissionBuffer()
        self.now = 0
        self.cuts = 0
        self.batches = 0
        self.peak_queue_depth = 0
        self.latencies: List[int] = []
        self.cut_reasons: Dict[str, int] = {}

    def admit(self, update: Update, tick: int) -> None:
        """Queue one update that arrived at ``tick`` (``<= now``)."""
        self.buffer.admit(update, tick, self.now)

    def pump(self, flush: bool = False) -> Iterator[Tuple[str, CutResult, int]]:
        """Apply each cut the rule calls for, yielding ``(reason, cut,
        rounds)`` after it; with ``flush`` (no more arrivals can come)
        cut until the queue is empty."""
        buf = self.buffer
        while buf.pending_cost:
            depth = buf.pending_cost
            self.peak_queue_depth = max(self.peak_queue_depth, depth)
            oldest = buf.oldest_tick
            age = self.now - oldest if oldest is not None else 0
            reason = cut_reason(depth, age, self.capacity)
            if reason is None:
                if not flush:
                    return
                reason = "flush"
            cut = buf.cut(self.capacity)
            ledger = self.dm.net.ledger
            before = ledger.snapshot()
            for batch in cut.batches:
                self.dm.apply_batch(batch)
                self.batches += 1
            rounds = ledger.since(before).rounds
            self.now += max(1, rounds)
            for t in cut.shipped_ticks:
                self.latencies.append(max(self.now - t, 0))
            self.latencies.extend(buf.drain_resolved())
            self.cuts += 1
            self.cut_reasons[reason] = self.cut_reasons.get(reason, 0) + 1
            if ledger.recorder is not None:
                ledger.recorder.emit(
                    "sched_cut",
                    reason=reason,
                    raw=len(cut.shipped_ticks),
                    shipped=cut.shipped,
                    queue_depth=buf.pending_cost,
                    tick=self.now,
                    oldest_age=age,
                    batches=len(cut.batches),
                )
            yield reason, cut, rounds

    def run(self, arrivals: ArrivalStream) -> StreamReport:
        """Replay the whole stream; returns the run's frontier numbers."""
        dm, buf = self.dm, self.buffer
        ledger = dm.net.ledger
        arr = arrivals.arrivals
        i = 0
        run_before = ledger.snapshot()
        while True:
            while i < len(arr) and arr[i].tick <= self.now:
                self.admit(arr[i].update, arr[i].tick)
                i += 1
            exhausted = i >= len(arr)
            # One cut decision per iteration: arrivals due by the clock a
            # cut leaves are admitted before the next decision.
            if next(self.pump(flush=exhausted), None) is not None:
                continue
            if exhausted:
                break
            # Nothing to do this tick: idle forward (jump straight to
            # the next arrival when the queue is empty).
            self.now = self.now + 1 if buf.pending_cost else arr[i].tick
        self.latencies.extend(buf.drain_resolved())
        run_delta = ledger.since(run_before)
        report = StreamReport(
            coalesced=self.coalesce,
            admitted=buf.admitted,
            shipped=buf.admitted - buf.absorbed,
            absorbed=buf.absorbed,
            cuts=self.cuts,
            batches=self.batches,
            rounds=run_delta.rounds,
            messages=run_delta.messages,
            words=run_delta.words,
            elapsed_ticks=self.now,
            p50_ticks=percentile(self.latencies, 50),
            p99_ticks=percentile(self.latencies, 99),
            peak_queue_depth=self.peak_queue_depth,
            msf_weight=dm.total_weight(),
            forest_digest=forest_digest(dm.msf_edges()),
            cut_reasons=dict(self.cut_reasons),
        )
        recorder = ledger.recorder
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
