"""The serve reducer: the only code that touches the charged core.

:class:`ServeReducer` owns the daemon's :class:`~repro.core.api.DynamicMST`,
the :class:`~repro.stream.ingest.StreamIngestor` that buffers and cuts
its admitted mutations, and the replicated
:class:`~repro.serve.view.ForestView`.  Everything it does is synchronous
and deterministic; the asyncio front-end (:mod:`repro.serve.server`)
serialises all access through one queue, so the reducer never needs a
lock and the core never sees concurrency.

**The replay contract.**  Live and offline run one cut step: the
reducer drives its ingestor's :meth:`~repro.stream.ingest.StreamIngestor.pump`
after every admission, and :func:`offline_replay` drives a fresh
ingestor's :meth:`~repro.stream.ingest.StreamIngestor.run` over the
admitted log.  What the reducer adds is the stamping, chosen so that
the replay's arrivals reach the same cut decisions at the same clock:

* queue empty at admission → stamp the current tick (the ingestor idles
  forward by jumping ``now`` straight to the next arrival's tick);
* queue non-empty → advance one tick, then stamp (the ingestor's one
  idle iteration, ``now + 1``, between consecutive admissions);
* :meth:`ServeReducer.drain` pumps with ``flush``, the end-of-stream
  path.

Rejected commands never reach the buffer, never stamp a tick, and never
appear in the admitted log — hostile traffic is invisible to the gate.
:func:`offline_replay` and :func:`verify_determinism` close the loop;
the serve test harness and the ``serve-smoke`` CI job assert the digests
match for every concurrent interleaving they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graphs.mst import forest_digest
from repro.graphs.streams import ArrivalStream, TimedUpdate, Update
from repro.stream.ingest import StreamIngestor
from repro.stream.metrics import percentile

from repro.serve.config import ServeConfig
from repro.serve.view import ForestView


class AdmissionError(Exception):
    """A structurally valid mutation the current graph state rejects."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class MsfChange:
    """One published forest transition (the ``msf_change`` event payload)."""

    version: int
    tick: int
    weight: float
    added: Tuple[Tuple[int, int, float], ...]
    removed: Tuple[Tuple[int, int], ...]
    reason: str
    batches: int
    rounds: int

    def as_fields(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "tick": self.tick,
            "weight": self.weight,
            "added": [list(e) for e in self.added],
            "removed": [list(p) for p in self.removed],
            "reason": self.reason,
        }


@dataclass
class Admitted:
    """What one accepted mutation produced."""

    seq: int                 # position in the admitted log
    tick: int                # stamped logical arrival tick
    changes: List[MsfChange] = field(default_factory=list)


class ServeReducer:
    """Parse → validate → **reduce** → publish: the reduce stage."""

    def __init__(self, config: ServeConfig, dm=None) -> None:
        self.config = config
        self.dm = dm if dm is not None else config.build_core()
        self.ingestor = StreamIngestor(self.dm)
        self.buffer = self.ingestor.buffer
        self.admitted_log: List[TimedUpdate] = []
        self.rejected = 0
        self.view = ForestView.capture(self.dm, version=0, tick=0)

    # ------------------------------------------------------------------
    # validation (parse → VALIDATE → reduce → publish)
    # ------------------------------------------------------------------
    def effective_present(self, u: int, v: int) -> bool:
        """Is the edge present once every pending update lands?"""
        pair = (u, v) if u <= v else (v, u)
        pending = self.buffer.pending_presence(pair)
        if pending is not None:
            return pending
        return self.dm.shadow.has_edge(*pair)

    def validate(self, update: Update) -> None:
        """Raise :class:`AdmissionError` unless ``update`` keeps the
        admitted sequence consistent in emission order (the
        :class:`~repro.graphs.streams.ArrivalStream` invariant the
        replay depends on)."""
        shadow = self.dm.shadow
        if not (shadow.has_vertex(update.u) and shadow.has_vertex(update.v)):
            raise AdmissionError(
                "unknown-vertex", f"no such vertex in ({update.u}, {update.v})"
            )
        present = self.effective_present(update.u, update.v)
        if update.kind == "add" and present:
            raise AdmissionError(
                "edge-exists", f"edge {update.endpoints} already present"
            )
        if update.kind == "delete" and not present:
            raise AdmissionError(
                "edge-missing", f"edge {update.endpoints} not present"
            )

    # ------------------------------------------------------------------
    # the reduce step
    # ------------------------------------------------------------------
    def submit(self, update: Update) -> Admitted:
        """Validate, stamp, admit and schedule one mutation."""
        try:
            self.validate(update)
        except AdmissionError:
            self.rejected += 1
            raise
        ingestor = self.ingestor
        if self.buffer.pending_cost:
            # The replay's one idle iteration between these admissions.
            ingestor.now += 1
        tick = ingestor.now
        ingestor.admit(update, tick)
        self.admitted_log.append(TimedUpdate(tick, update))
        seq = len(self.admitted_log) - 1
        return Admitted(seq=seq, tick=tick, changes=self._pump(flush=False))

    def drain(self) -> List[MsfChange]:
        """Flush the buffer at shutdown — the end-of-stream replay path."""
        return self._pump(flush=True)

    def _pump(self, flush: bool) -> List[MsfChange]:
        return [
            self._publish(reason, len(cut.batches), rounds)
            for reason, cut, rounds in self.ingestor.pump(flush)
        ]

    def _publish(self, reason: str, batches: int, rounds: int) -> MsfChange:
        old = self.view
        new = ForestView.capture(
            self.dm, version=old.version + 1, tick=self.ingestor.now
        )
        added, removed = old.diff(new)
        self.view = new
        change = MsfChange(
            version=new.version,
            tick=new.tick,
            weight=new.weight,
            added=tuple(added),
            removed=tuple(removed),
            reason=reason,
            batches=batches,
            rounds=rounds,
        )
        recorder = self.dm.net.ledger.recorder
        if recorder is not None:
            recorder.emit(
                "serve_publish",
                version=change.version,
                added=len(change.added),
                removed=len(change.removed),
                weight=change.weight,
                tick=change.tick,
                batches=batches,
                rounds=rounds,
                reason=reason,
            )
        return change

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        return len(self.admitted_log)

    def stats(self) -> Dict[str, object]:
        ingestor = self.ingestor
        out = dict(self.view.stats())
        out.update(
            admitted=self.admitted,
            absorbed=self.buffer.absorbed,
            shipped=self.buffer.admitted - self.buffer.absorbed,
            rejected=self.rejected,
            cuts=ingestor.cuts,
            batches=ingestor.batches,
            queue_depth=self.buffer.pending_cost,
            peak_queue_depth=ingestor.peak_queue_depth,
            p50_ticks=percentile(ingestor.latencies, 50),
            p99_ticks=percentile(ingestor.latencies, 99),
            rounds=self.dm.net.ledger.rounds,
        )
        return out

    def ledger_digest(self) -> str:
        return self.dm.net.ledger.digest()

    def forest_digest(self) -> str:
        return forest_digest(self.dm.msf_edges())


# ----------------------------------------------------------------------
# the determinism gate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReplayResult:
    """The offline half of the gate: a fresh core fed the admitted log."""

    ledger_digest: str
    forest_digest: str
    admitted: int
    cuts: int


def offline_replay(
    config: ServeConfig, admitted: List[TimedUpdate]
) -> ReplayResult:
    """Replay the admitted log through a fresh :class:`StreamIngestor`.

    Constructs a second core from the same :class:`ServeConfig` (same
    seeded graph, partition and init draws) and runs the stream ingestor
    over the recorded stream.  Byte-identical digests mean the live
    daemon's stamps led the ingestor's tick loop to the same charged
    work.
    """
    dm = config.build_core()
    stream = ArrivalStream(config.initial_graph(), admitted, name="serve-replay")
    report = StreamIngestor(dm).run(stream)
    return ReplayResult(
        ledger_digest=dm.net.ledger.digest(),
        forest_digest=report.forest_digest,
        admitted=report.admitted,
        cuts=report.cuts,
    )


def verify_determinism(reducer: ServeReducer) -> Dict[str, object]:
    """Compare a drained live reducer against its offline replay.

    Call after :meth:`ServeReducer.drain`; a live reducer with pending
    buffered updates would trivially diverge from the replay's flush.
    """
    if reducer.buffer.pending_cost:
        raise ValueError("drain() the reducer before verifying")
    replay = offline_replay(reducer.config, reducer.admitted_log)
    live_ledger = reducer.ledger_digest()
    live_forest = reducer.forest_digest()
    return {
        "ok": live_ledger == replay.ledger_digest
        and live_forest == replay.forest_digest,
        "admitted": reducer.admitted,
        "live_ledger_digest": live_ledger,
        "replay_ledger_digest": replay.ledger_digest,
        "live_forest_digest": live_forest,
        "replay_forest_digest": replay.forest_digest,
        "live_cuts": reducer.ingestor.cuts,
        "replay_cuts": replay.cuts,
    }
