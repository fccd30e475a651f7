"""The trace recorder: structured JSONL round events, off by default.

A :class:`TraceRecorder` implements the
:class:`~repro.sim.metrics.TraceSink` hook protocol the simulator
speaks.  Attach one to a ledger (``ledger.recorder = rec``, or the
:func:`recording` context manager, or
:meth:`repro.core.api.DynamicMST.attach_trace`) and every superstep,
charge, phase boundary, strict violation and engine selection is
written as one JSON line — see :mod:`repro.trace.events` for the
schema.

Detached is the default and costs one attribute load + ``None`` check
per charge; nothing here ever runs unless a recorder is installed, so
ledger digests and throughput with recording off are identical to a
build without this module.

Traces are deterministic: events carry no wall-clock timestamps (the
ordering key is ``seq``), so two runs of the same seeded scenario write
byte-identical traces and ``repro trace-diff`` on them reports zero
divergence.  Wall time, when wanted, is opt-in with
``REPRO_TRACE_WALL=1`` (or ``wall_clock=True``): every event then
carries a ``wall_ns`` ambient field, and ``repro report`` pairs the
stamps on ``phase_start``/``phase_end`` into each phase's inclusive and
self wall time.  Ambient fields are stripped by the digest/diff paths
(:func:`repro.trace.events.strip_ambient`), so opting in never changes
ledger digests or trace equivalence — only the literal file bytes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Union

import repro
from repro.sim.metrics import Ledger
from repro.trace.events import TRACE_SCHEMA


def _wall_clock_from_env() -> bool:
    return os.environ.get("REPRO_TRACE_WALL", "") not in ("", "0")

#: Directories whose frames are skipped when attributing a charge to a
#: call site: the simulator core, this package, and the observability
#: fan-out (a TeeSink forwarding frame is plumbing, not protocol code —
#: skipping it keeps teed trace files byte-identical to solo ones).
#: The first frame outside them is the code that paid for the
#: communication.
_SKIP_DIRS = (
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "sim"),
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "obs"),
    os.path.dirname(os.path.abspath(__file__)),
)
_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _call_site() -> str:
    """``path:lineno`` of the nearest frame outside sim/ and trace/."""
    frame = sys._getframe(1)
    while frame is not None:
        path = os.path.abspath(frame.f_code.co_filename)
        if os.path.dirname(path) not in _SKIP_DIRS:
            break
        frame = frame.f_back
    if frame is None:  # pragma: no cover - the CLI entry always qualifies
        return "?"
    path = os.path.abspath(frame.f_code.co_filename)
    if path.startswith(_PKG_ROOT + os.sep):
        path = os.path.relpath(path, _PKG_ROOT)
    else:
        path = os.path.basename(path)
    return f"{path}:{frame.f_lineno}"


class TraceRecorder:
    """Writes one schema-versioned JSONL event stream (the TraceSink).

    ``sink`` may be a path (opened and owned by the recorder) or any
    text file-like object (borrowed; not closed by :meth:`close`).
    ``meta`` is free-form context stamped into the ``trace_start``
    header — scenario name, CLI argv, engine pin.
    """

    def __init__(
        self,
        sink: Union[str, "os.PathLike[str]", IO[str]],
        meta: Optional[Dict[str, Any]] = None,
        wall_clock: Optional[bool] = None,
    ) -> None:
        if hasattr(sink, "write"):
            self._fh: IO[str] = sink  # type: ignore[assignment]
            self._owns_fh = False
        else:
            self._fh = open(os.fspath(sink), "w", encoding="utf-8")
            self._owns_fh = True
        #: Opt-in ``wall_ns`` stamping (ambient field; stripped before
        #: any digest/diff, so it can never affect equivalence).
        self.wall_clock = (
            _wall_clock_from_env() if wall_clock is None else wall_clock
        )
        self.seq = 0
        self.charges = 0
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.closed = False
        #: Superstep context stashed by :meth:`on_superstep`, merged into
        #: the next charge (the network always charges immediately after).
        self._pending: Optional[Dict[str, Any]] = None
        self.emit("trace_start", schema=TRACE_SCHEMA, meta=meta or {})

    # ------------------------------------------------------------------
    # low-level emission
    # ------------------------------------------------------------------
    def emit(self, etype: str, **fields: Any) -> None:
        """Write one event line (assigns ``seq``; caller supplies the rest)."""
        if self.closed:
            raise ValueError("trace recorder already closed")
        event: Dict[str, Any] = {"type": etype, "seq": self.seq}
        event.update(fields)
        if self.wall_clock:
            # simlint: disable=SIM003 opt-in observability stamp; ambient field stripped before digest/diff, never feeds round accounting
            event["wall_ns"] = time.time_ns()
        self.seq += 1
        self._fh.write(json.dumps(event, separators=(",", ":")))
        self._fh.write("\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Emit the ``trace_end`` trailer and release the sink."""
        if self.closed:
            return
        self.emit(
            "trace_end",
            events=self.seq,
            charges=self.charges,
            rounds=self.rounds,
            messages=self.messages,
            words=self.words,
            **(extra or {}),
        )
        self.closed = True
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # TraceSink hooks (called by the instrumented simulator)
    # ------------------------------------------------------------------
    def on_superstep(
        self,
        engine: str,
        n_messages: int,
        n_words: int,
        send: Sequence[int],
        recv: Sequence[int],
        sizes: Dict[int, int],
    ) -> None:
        """Stash one superstep's load vectors for the charge that follows."""
        self._pending = {
            "engine": engine,
            "send": list(send),
            "recv": list(recv),
            "sizes": {str(w): c for w, c in sorted(sizes.items())},
        }

    def on_charge(
        self,
        rounds: int,
        messages: int,
        words: int,
        index: int,
        phases: Sequence[str],
    ) -> None:
        self.charges += 1
        self.rounds += rounds
        self.messages += messages
        self.words += words
        pending, self._pending = self._pending, None
        etype = "superstep" if pending is not None else "charge"
        self.emit(
            etype,
            index=index,
            rounds=rounds,
            messages=messages,
            words=words,
            phases=list(phases),
            site=_call_site(),
            **(pending or {}),
        )

    def on_phase_start(self, name: str, depth: int) -> None:
        self.emit("phase_start", name=name, depth=depth)

    def on_phase_end(
        self, name: str, depth: int, rounds: int, messages: int, words: int
    ) -> None:
        self.emit(
            "phase_end", name=name, depth=depth,
            rounds=rounds, messages=messages, words=words,
        )

    def on_violation(self, kind: str, message: str) -> None:
        # A violation aborts its superstep before the charge lands; drop
        # the stashed context so it cannot leak into a later charge.
        self._pending = None
        self.emit("violation", kind=kind, message=message)

    def on_engine(self, feature: str, engine: str) -> None:
        self.emit("engine", feature=feature, engine=engine)


@contextmanager
def recording(
    sink: Union[str, "os.PathLike[str]", IO[str]],
    ledger: Ledger,
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[TraceRecorder]:
    """Attach a fresh recorder to ``ledger`` for the duration of the block."""
    rec = TraceRecorder(sink, meta=meta)
    prev = ledger.recorder
    ledger.recorder = rec
    try:
        yield rec
    finally:
        ledger.recorder = prev
        rec.close()


def read_trace(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, Any]]:
    """Load a JSONL trace file into a list of event dicts (unvalidated)."""
    events: List[Dict[str, Any]] = []
    with open(os.fspath(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                from repro.trace.events import TraceFormatError

                raise TraceFormatError(
                    f"{os.fspath(path)}:{lineno}: not valid JSON ({exc})"
                ) from exc
    return events
