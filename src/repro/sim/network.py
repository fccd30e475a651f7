"""Synchronous networks: round accounting and message delivery.

A protocol is expressed as a sequence of *supersteps*.  In one superstep
every machine may inject any number of messages; the network computes how
many synchronous rounds that load needs under the model's capacity rule,
charges the ledger, and delivers everything.  This mirrors how round
complexity is argued in the paper: a communication pattern costs
``ceil(worst link load / capacity)`` rounds because the schedule within a
pattern is oblivious.

Crucially the network is *dumb*: it never reroutes.  Load-balancing tricks
(the Rerouting Lemma, Lenzen routing) live in :mod:`repro.comm` as explicit
multi-superstep protocols, so their O(1)/O(B/k) guarantees are measured,
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import BandwidthExceeded, StrictModeViolation
from repro.sim.machine import Machine
from repro.sim.message import Message
from repro.sim.metrics import Ledger
from repro.sim.plane import MessagePlane
from repro.sim.strict import (
    EntropyGuard,
    check_message_words,
    strict_from_env,
    violation_kind,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class RetryWave:
    """One retransmission wave of a faulty superstep.

    Produced by a :class:`FaultHook` when messages were dropped on the
    wire: the wave's per-pair load is charged as additional rounds under
    the ``fault-retry`` ledger phase, so recovery overhead is measured
    in the same currency as the protocol itself.
    """

    pair_words: Dict[Tuple[int, int], int]
    n_messages: int
    n_words: int


@dataclass
class FaultOutcome:
    """What a fault hook decided for one superstep.

    ``wire`` is the message multiset that actually occupied links
    (duplicates included, messages from crashed machines excluded) — the
    load the main charge is computed from.  ``deliver`` is the subset
    that ultimately reaches inboxes, in original send order (receiver
    reassembly; duplicates deduplicated, black-holed messages removed).
    ``retries`` are the retransmission waves needed to get dropped
    messages through, each charged separately after the main charge.
    """

    wire: List[Message]
    deliver: List[Message]
    retries: List[RetryWave] = field(default_factory=list)


class FaultHook(Protocol):
    """The hook protocol the network speaks to a fault injector.

    Implemented by :class:`repro.faults.injector.FaultInjector`; declared
    here so the mypy-strict simulator kernel needs no import of (and no
    dependency on) the fault layer.  ``enabled`` must be cheap: it is
    consulted once per superstep, and while it returns False the network
    takes its unmodified code path — byte-identical ledgers, transcripts
    and inboxes.
    """

    @property
    def enabled(self) -> bool: ...

    def intercept(self, messages: List[Message], net: "Network") -> FaultOutcome: ...


class Network:
    """Base synchronous network over ``k`` machines with a shared ledger.

    ``strict=True`` (or the ``REPRO_STRICT=1`` environment variable)
    arms the sanitizer checks of :mod:`repro.sim.strict`: honest message
    word costs, round conservation, and no hidden global-RNG use.
    Violations raise :class:`~repro.errors.StrictModeViolation` and are
    counted in ``strict_violations``.
    """

    def __init__(self, k: int, ledger: Optional[Ledger] = None,
                 machine_budget: Optional[int] = None,
                 strict: Optional[bool] = None) -> None:
        if k < 1:
            raise ValueError("need at least one machine")
        self.k = k
        self.ledger = ledger if ledger is not None else Ledger()
        self.machines: List[Machine] = [Machine(i, budget=machine_budget) for i in range(k)]
        #: Cumulative words delivered *into* each machine — the quantity
        #: the Theorem 7.1 information argument bounds from below.
        self.ingress_words: List[int] = [0] * k
        self.egress_words: List[int] = [0] * k
        self.strict = strict_from_env() if strict is None else strict
        self.strict_violations = 0
        self._entropy_guard: Optional[EntropyGuard] = (
            EntropyGuard() if self.strict else None
        )
        #: Optional fault-injection hook (see :mod:`repro.faults`).  None
        #: (the default) and a disabled hook both cost one attribute read
        #: per superstep and leave the wire untouched.
        self.faults: Optional[FaultHook] = None

    # -- model-specific ------------------------------------------------
    def rounds_for_load(
        self, pair_words: Dict[Tuple[int, int], int]
    ) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def relay_multiplicity(self, words: int) -> int:
        """How many ``words``-sized broadcasts one relay machine can emit
        per round without exceeding its egress budget.  1 in the
        k-machine model (per-link words/round is the binding limit); up
        to S/((k-1)·words) in MPC.  Used by the Rerouting Lemma scheduler
        to fill the available bandwidth in either model."""
        return 1

    # -- generic machinery ----------------------------------------------
    def superstep(self, messages: Iterable[Message]) -> Dict[int, List[Tuple[int, Any]]]:
        """Deliver ``messages``; charge the rounds their load requires.

        Returns per-destination inboxes as ``{dst: [(src, payload), ...]}``
        sorted by source machine for determinism.  An empty superstep is
        free (no rounds charged).
        """
        msgs = list(messages)
        if not msgs:
            return {}
        faults = self.faults
        outcome: Optional[FaultOutcome] = None
        if faults is not None and faults.enabled:
            outcome = faults.intercept(msgs, self)
            msgs = outcome.wire
            if not msgs:
                # Every message originated at a crashed machine: nothing
                # reached the wire, nothing is charged or delivered.
                return {}
        if self.strict:
            self._strict_pre_superstep(msgs)
        pair_words: Dict[Tuple[int, int], int] = {}
        n_msgs = 0
        n_words = 0
        for m in msgs:
            self._check_endpoint(m.src)
            self._check_endpoint(m.dst)
            pair_words[(m.src, m.dst)] = pair_words.get((m.src, m.dst), 0) + m.words
            n_msgs += 1
            n_words += m.words
            self.ingress_words[m.dst] += m.words
            self.egress_words[m.src] += m.words
        recorder = self.ledger.recorder
        if recorder is not None:
            send = [0] * self.k
            recv = [0] * self.k
            sizes: Dict[int, int] = {}
            for m in msgs:
                send[m.src] += m.words
                recv[m.dst] += m.words
                sizes[m.words] = sizes.get(m.words, 0) + 1
            recorder.on_superstep("scalar", n_msgs, n_words, send, recv, sizes)
        rounds = self.rounds_for_load(pair_words)
        if self.strict and n_words > 0 and rounds < 1:
            self._strict_violation(
                f"superstep moved {n_words} word(s) but "
                f"{type(self).__name__}.rounds_for_load charged {rounds} rounds"
            )
        self.ledger.charge(rounds, n_msgs, n_words)
        deliver = msgs
        if outcome is not None:
            self._charge_retries(outcome.retries)
            deliver = outcome.deliver
        inboxes: Dict[int, List[Tuple[int, Any]]] = {}
        for m in sorted(deliver, key=lambda m: (m.dst, m.src)):
            inboxes.setdefault(m.dst, []).append((m.src, m.payload))
        return inboxes

    def _charge_retries(self, retries: Sequence[RetryWave]) -> None:
        """Charge each retransmission wave under the ``fault-retry`` phase.

        A wave occupies at least one round even if its load would round
        down — retransmission happens after the original barrier, so it
        cannot hide inside the superstep it repairs.
        """
        for wave in retries:
            rounds = max(1, self.rounds_for_load(wave.pair_words))
            with self.ledger.phase("fault-retry"):
                self.ledger.charge(rounds, wave.n_messages, wave.n_words)

    def superstep_plane(self, plane: MessagePlane) -> Dict[int, List[Tuple[int, Any]]]:
        """Columnar twin of :meth:`superstep`: same charges, array math.

        Per-pair loads, ingress/egress gauges and message/word totals are
        computed with ``np.bincount`` instead of a Python accumulation
        loop, then fed through the **same** ``rounds_for_load`` — so the
        ledger's charge transcript is byte-identical to delivering the
        equivalent ``Message`` list.  Returns the same sorted inboxes.
        """
        n = len(plane)
        if n == 0:
            return {}
        faults = self.faults
        if faults is not None and faults.enabled:
            # Fault injection is a testing layer: route the plane through
            # the scalar path so drop/duplicate/crash decisions stay
            # per-message.  Charges are identical by the plane/scalar
            # equivalence contract; only the recorder's ``engine`` tag
            # reads "scalar" while faults are being injected.
            src_l = plane.src.tolist()
            dst_l = plane.dst.tolist()
            words_l = plane.words.tolist()
            return self.superstep(
                Message(src_l[i], dst_l[i], plane.payloads[i], words_l[i])
                for i in range(n)
            )
        if self.strict:
            self._strict_pre_plane(plane)
        src, dst, words = plane.src, plane.dst, plane.words
        bad = (src < 0) | (src >= self.k) | (dst < 0) | (dst >= self.k)
        if bool(bad.any()):
            i = int(np.argmax(bad))
            offender = int(src[i]) if not 0 <= int(src[i]) < self.k else int(dst[i])
            raise BandwidthExceeded(f"machine id {offender} outside [0, {self.k})")
        load_matrix = self._plane_load_matrix(src, dst, words)
        nz_src, nz_dst = np.nonzero(load_matrix)
        pair_words: Dict[Tuple[int, int], int] = {
            (int(s), int(d)): int(load_matrix[s, d])
            for s, d in zip(nz_src.tolist(), nz_dst.tolist())
        }
        n_words = int(load_matrix.sum())
        in_words = load_matrix.sum(axis=0)
        out_words = load_matrix.sum(axis=1)
        for m in np.flatnonzero(in_words).tolist():
            self.ingress_words[m] += int(in_words[m])
        for m in np.flatnonzero(out_words).tolist():
            self.egress_words[m] += int(out_words[m])
        recorder = self.ledger.recorder
        if recorder is not None:
            size_vals, size_counts = np.unique(words, return_counts=True)
            recorder.on_superstep(
                "columnar", n, n_words,
                [int(w) for w in out_words], [int(w) for w in in_words],
                dict(zip((int(w) for w in size_vals),
                         (int(c) for c in size_counts))),
            )
        rounds = self.rounds_for_load(pair_words)
        if self.strict and n_words > 0 and rounds < 1:
            self._strict_violation(
                f"superstep moved {n_words} word(s) but "
                f"{type(self).__name__}.rounds_for_load charged {rounds} rounds"
            )
        self.ledger.charge(rounds, n, n_words)
        inboxes: Dict[int, List[Tuple[int, Any]]] = {}
        payloads = plane.payloads
        src_list = src.tolist()
        dst_list = dst.tolist()
        for i in np.lexsort((src, dst)).tolist():
            inboxes.setdefault(dst_list[i], []).append((src_list[i], payloads[i]))
        return inboxes

    def _plane_load_matrix(self, src: Any, dst: Any, words: Any) -> Any:
        """Per-(src, dst) word loads as a dense ``(k, k)`` int64 matrix.

        Every charge, gauge and pair load downstream is derived from this
        one matrix.
        """
        pair = src * self.k + dst
        loads = np.bincount(pair, weights=words, minlength=self.k * self.k)
        return loads.astype(np.int64).reshape(self.k, self.k)

    def broadcast(self, src: int, payload: Any, words: int) -> None:
        """One machine sends the same ``words`` over all its links."""
        from repro.perf.config import fast_path_enabled

        if fast_path_enabled():
            self.superstep_plane(MessagePlane.fanout([(src, payload, words)], self.k))
        else:
            self.superstep(
                Message(src, dst, payload, words)
                for dst in range(self.k)
                if dst != src
            )

    def charge_rounds(self, rounds: int) -> None:
        """Charge rounds with no messages (e.g. synchronization barriers)."""
        self.ledger.charge(rounds)

    def _check_endpoint(self, mid: int) -> None:
        if not 0 <= mid < self.k:
            raise BandwidthExceeded(f"machine id {mid} outside [0, {self.k})")

    # -- strict mode -----------------------------------------------------
    def _count_violation(self, exc: StrictModeViolation) -> None:
        """Count a violation and surface it to an attached trace recorder."""
        self.strict_violations += 1
        recorder = self.ledger.recorder
        if recorder is not None:
            recorder.on_violation(violation_kind(exc), str(exc))

    def _strict_violation(self, message: str) -> None:
        exc = StrictModeViolation(message, kind="round-conservation")
        self._count_violation(exc)
        raise exc

    def _strict_pre_superstep(self, msgs: List[Message]) -> None:
        guard = self._entropy_guard
        if guard is not None:
            try:
                guard.check("this superstep")
            except StrictModeViolation as exc:
                self._count_violation(exc)
                raise
        for m in msgs:
            try:
                check_message_words(m.src, m.dst, m.payload, m.words)
            except StrictModeViolation as exc:
                self._count_violation(exc)
                raise

    def _strict_pre_plane(self, plane: MessagePlane) -> None:
        guard = self._entropy_guard
        if guard is not None:
            try:
                guard.check("this superstep")
            except StrictModeViolation as exc:
                self._count_violation(exc)
                raise
        src = plane.src.tolist()
        dst = plane.dst.tolist()
        words = plane.words.tolist()
        for i, payload in enumerate(plane.payloads):
            try:
                check_message_words(src[i], dst[i], payload, words[i])
            except StrictModeViolation as exc:
                self._count_violation(exc)
                raise

    def resync_entropy(self) -> None:
        """Accept global-RNG use that happened *outside* protocol code.

        Call after intentionally consuming global randomness between
        supersteps (e.g. test scaffolding); protocols themselves must
        not need this.
        """
        if self._entropy_guard is not None:
            self._entropy_guard.resync()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, {self.ledger!r})"


class KMachineNetwork(Network):
    """The k-machine / CONGESTED-CLIQUE communication rule.

    Every ordered machine pair carries ``words_per_round`` words (i.e.
    Θ(log n) bits) per round; the cost of a superstep is the worst
    per-pair load.  The CONGESTED CLIQUE is this network with k = n.
    """

    def __init__(
        self,
        k: int,
        words_per_round: int = 1,
        ledger: Optional[Ledger] = None,
        machine_budget: Optional[int] = None,
        strict: Optional[bool] = None,
    ) -> None:
        super().__init__(k, ledger, machine_budget, strict=strict)
        if words_per_round < 1:
            raise ValueError("words_per_round must be >= 1")
        self.words_per_round = words_per_round

    def rounds_for_load(self, pair_words: Dict[Tuple[int, int], int]) -> int:
        worst = max(pair_words.values(), default=0)
        return _ceil_div(worst, self.words_per_round)


class MPCNetwork(Network):
    """The MPC communication rule: per-machine total I/O of S words/round.

    A machine may talk to anyone, but its aggregate send and aggregate
    receive volumes are each capped at ``space`` words per round (§3).
    """

    def __init__(
        self,
        k: int,
        space: int,
        ledger: Optional[Ledger] = None,
        enforce_budget: bool = True,
        strict: Optional[bool] = None,
    ) -> None:
        super().__init__(
            k, ledger, machine_budget=space if enforce_budget else None, strict=strict
        )
        if space < 1:
            raise ValueError("space must be >= 1")
        self.space = space

    def relay_multiplicity(self, words: int) -> int:
        if self.k <= 1:
            return 1
        return max(1, self.space // max(1, (self.k - 1) * words))

    def rounds_for_load(self, pair_words: Dict[Tuple[int, int], int]) -> int:
        out: Dict[int, int] = {}
        inc: Dict[int, int] = {}
        for (src, dst), w in pair_words.items():
            out[src] = out.get(src, 0) + w
            inc[dst] = inc.get(dst, 0) + w
        worst = max(list(out.values()) + list(inc.values()), default=0)
        return _ceil_div(worst, self.space)
