"""Cost ledger: rounds, messages, words, per-phase breakdowns.

Every communication super-step reports its cost here.  The benchmark
harness reads ledgers to regenerate the paper's complexity claims, so the
ledger is the single source of truth for "how many rounds did that take".

Two instrumentation hooks ride along:

* the **charge transcript** — every ``charge`` call is appended to
  ``transcript`` as a ``(rounds, messages, words)`` tuple, and
  :meth:`Ledger.digest` hashes it.  Two runs are *ledger-equivalent* iff
  their digests match: same charges, same order, byte for byte.  This is
  the contract the columnar fast path (:mod:`repro.perf`) is held to.
* the **trace recorder** — attach any :class:`TraceSink` (in practice a
  :class:`repro.trace.recorder.TraceRecorder`) to ``ledger.recorder``
  and every charge and phase boundary is reported as a structured
  event; the network layer additionally reports per-superstep load
  vectors and strict violations through the same sink.  Detached (the
  default) the hooks cost one attribute read per charge.

The ledger never reads a clock.  Per-phase wall time, when wanted, comes
from the ``wall_ns`` stamps a sink puts on the ``phase_start``/
``phase_end`` events (``REPRO_TRACE_WALL=1``; the live bus always
stamps), folded by :class:`repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Tuple


@dataclass
class PhaseStats:
    """Aggregated cost of one named phase."""

    rounds: int = 0
    messages: int = 0
    words: int = 0
    calls: int = 0

    def add(self, rounds: int, messages: int, words: int) -> None:
        self.rounds += rounds
        self.messages += messages
        self.words += words
        self.calls += 1


class TraceSink(Protocol):
    """The hook protocol the simulator speaks to a trace recorder.

    Implemented by :class:`repro.trace.recorder.TraceRecorder`; declared
    here so the mypy-strict simulator kernel needs no import of (and no
    dependency on) the observability layer.  All hooks must be cheap
    and must not touch the ledger they observe.
    """

    def on_charge(
        self, rounds: int, messages: int, words: int,
        index: int, phases: Sequence[str],
    ) -> None: ...

    def on_phase_start(self, name: str, depth: int) -> None: ...

    def on_phase_end(
        self, name: str, depth: int, rounds: int, messages: int, words: int
    ) -> None: ...

    def on_superstep(
        self, engine: str, n_messages: int, n_words: int,
        send: Sequence[int], recv: Sequence[int], sizes: Dict[int, int],
    ) -> None: ...

    def on_violation(self, kind: str, message: str) -> None: ...

    def on_engine(self, feature: str, engine: str) -> None: ...

    def emit(self, etype: str, **fields: object) -> None: ...


class Ledger:
    """Accumulates communication cost, optionally split by nested phases."""

    def __init__(self) -> None:
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.phases: Dict[str, PhaseStats] = {}
        self._phase_stack: List[str] = []
        #: Ordered record of every charge — the equivalence contract.
        self.transcript: List[Tuple[int, int, int]] = []
        #: Optional structured-event recorder (see :mod:`repro.trace`).
        self.recorder: Optional[TraceSink] = None

    # ------------------------------------------------------------------
    def charge(self, rounds: int, messages: int = 0, words: int = 0) -> None:
        if rounds < 0 or messages < 0 or words < 0:
            raise ValueError("costs must be non-negative")
        self.rounds += rounds
        self.messages += messages
        self.words += words
        self.transcript.append((rounds, messages, words))
        for name in self._phase_stack:
            self.phases.setdefault(name, PhaseStats()).add(rounds, messages, words)
        recorder = self.recorder
        if recorder is not None:
            recorder.on_charge(
                rounds, messages, words, len(self.transcript) - 1, self._phase_stack
            )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the block to ``name`` (nestable)."""
        recorder = self.recorder
        depth = len(self._phase_stack)
        if recorder is not None:
            recorder.on_phase_start(name, depth)
            r0, m0, w0 = self.rounds, self.messages, self.words
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()
            if recorder is not None:
                recorder.on_phase_end(
                    name, depth,
                    self.rounds - r0, self.messages - m0, self.words - w0,
                )

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over the charge transcript (order-sensitive).

        Two protocol runs with equal digests made byte-identical charge
        sequences — the strongest form of "same rounds/messages/words".
        """
        h = hashlib.sha256()
        for rounds, messages, words in self.transcript:
            h.update(f"{rounds},{messages},{words};".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def snapshot(self) -> "LedgerSnapshot":
        return LedgerSnapshot(self.rounds, self.messages, self.words)

    def since(self, snap: "LedgerSnapshot") -> "LedgerSnapshot":
        return LedgerSnapshot(
            self.rounds - snap.rounds,
            self.messages - snap.messages,
            self.words - snap.words,
        )

    def reset(self) -> None:
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.phases.clear()
        self.transcript.clear()

    def report(self) -> str:
        lines = [f"total: rounds={self.rounds} messages={self.messages} words={self.words}"]
        for name in sorted(self.phases):
            s = self.phases[name]
            lines.append(
                f"  {name}: rounds={s.rounds} messages={s.messages} "
                f"words={s.words} calls={s.calls}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Ledger(rounds={self.rounds}, messages={self.messages}, words={self.words})"


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable point-in-time view of a ledger (for per-batch deltas)."""

    rounds: int
    messages: int
    words: int

    def __sub__(self, other: "LedgerSnapshot") -> "LedgerSnapshot":
        return LedgerSnapshot(
            self.rounds - other.rounds,
            self.messages - other.messages,
            self.words - other.words,
        )
