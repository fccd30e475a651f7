"""Synchronous networks: round accounting and message delivery.

A protocol is expressed as a sequence of *supersteps*.  In one superstep
every machine may inject any number of messages; the network computes how
many synchronous rounds that load needs under the model's capacity rule
and charges the ledger.  This mirrors how round complexity is argued in
the paper: a communication pattern costs ``ceil(worst link load /
capacity)`` rounds because the schedule within a pattern is oblivious.

The network charges every superstep but delivers inboxes only where a
receiver reads them: :meth:`Network.superstep` returns inboxes (its one
reader is :func:`repro.sim.program.run_programs`), while the protocols of
:mod:`repro.comm` know what every machine receives from their own
requests and call the charge-only :meth:`Network.fanout` and
:meth:`Network.point_to_point`.  On the columnar engine those two charge
from loads computed in one pass over the requests
(:meth:`Network.superstep_plane`); on the reference engine they
materialize the ``Message`` list and run :meth:`superstep`.

Crucially the network is *dumb*: it never reroutes.  Load-balancing tricks
(the Rerouting Lemma, Lenzen routing) live in :mod:`repro.comm` as explicit
multi-superstep protocols, so their O(1)/O(B/k) guarantees are measured,
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.errors import BandwidthExceeded, StrictModeViolation
from repro.sim.executor import backend_from_env
from repro.sim.machine import Machine
from repro.sim.message import Message
from repro.sim.metrics import Ledger
from repro.sim.strict import (
    EntropyGuard,
    check_message_words,
    strict_from_env,
    violation_kind,
)


#: A fan-out request: (source machine, payload, payload width in words).
FanoutReq = Tuple[int, Any, int]
#: A point-to-point send: (source, destination, payload, width in words).
Send = Tuple[int, int, Any, int]


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
                 strict: Optional[bool] = None,
                 fast: Optional[bool] = None) -> None:
        if k < 1:
            raise ValueError("need at least one machine")
        self.k = k
        #: The engine, fixed for the network's life: True runs the
        #: columnar fast path (see :mod:`repro.perf.config`).  None
        #: resolves ``REPRO_BACKEND`` once, here.
        self.fast: bool = backend_from_env().fast if fast is None else fast
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
    def rounds_for(
        self, worst_pair: int, send: Sequence[int], recv: Sequence[int]
    ) -> int:  # pragma: no cover - abstract
        """Rounds a superstep needs under the model's capacity rule, from
        its heaviest ordered-pair load and each machine's send and receive
        totals (words)."""
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
        free (no rounds charged).  This is the reference path: protocols
        that do not read inboxes call :meth:`fanout` or
        :meth:`point_to_point`, which charge the same.
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
            self._strict_pre_superstep((m.src, m.dst, m.payload, m.words) for m in msgs)
        pair_words: Dict[Tuple[int, int], int] = {}
        n_words = 0
        for m in msgs:
            self._check_endpoint(m.src)
            self._check_endpoint(m.dst)
            pair_words[(m.src, m.dst)] = pair_words.get((m.src, m.dst), 0) + m.words
            n_words += m.words
        sizes: Optional[Dict[int, int]] = None
        if self.ledger.recorder is not None:
            sizes = {}
            for m in msgs:
                sizes[m.words] = sizes.get(m.words, 0) + 1
        worst, send, recv = self._pair_loads(pair_words)
        self._charge("scalar", len(msgs), n_words, worst, send, recv, sizes)
        deliver = msgs
        if outcome is not None:
            self._charge_retries(outcome.retries)
            deliver = outcome.deliver
        inboxes: Dict[int, List[Tuple[int, Any]]] = {}
        for m in sorted(deliver, key=lambda m: (m.dst, m.src)):
            inboxes.setdefault(m.dst, []).append((m.src, m.payload))
        return inboxes

    def fanout(self, requests: Sequence[FanoutReq]) -> None:
        """Charge one superstep in which every ``(src, payload, words)``
        request goes from its source to every other machine.

        Charges exactly what :meth:`superstep` charges for the
        ``Message`` list ``[(src, dst) for each request, for dst in
        range(k) if dst != src]``, and delivers nothing: every copy of a
        request is the same payload, so callers know what each machine
        received.  The columnar engine charges it in closed form
        (:meth:`superstep_plane`).
        """
        if not requests:
            return
        k = self.k
        faults = self.faults
        # One machine has no links: only a bad source puts a message on
        # the wire, so the reference path decides.
        if not self.fast or k == 1 or (faults is not None and faults.enabled):
            self.superstep(
                Message(src, dst, payload, words)
                for (src, payload, words) in requests
                for dst in range(k)
                if dst != src
            )
        else:
            self.superstep_plane(requests, ())

    def point_to_point(self, sends: Sequence[Send]) -> None:
        """Charge one superstep of ``(src, dst, payload, words)`` sends.

        Charges exactly what :meth:`superstep` charges for the same
        messages in the same order, and delivers nothing (the caller
        holds the sends it made).  The columnar engine charges it in
        closed form (:meth:`superstep_plane`).
        """
        if not sends:
            return
        faults = self.faults
        if not self.fast or (faults is not None and faults.enabled):
            self.superstep(Message(s, d, p, w) for (s, d, p, w) in sends)
        else:
            self.superstep_plane((), sends)

    def superstep_plane(
        self, requests: Sequence[FanoutReq], sends: Sequence[Send]
    ) -> None:
        """The columnar engine's superstep: charge fan-out ``requests``
        and point-to-point ``sends`` from their loads, in one pass.

        Charges exactly what :meth:`superstep` charges for every
        request's copies to the other machines followed by the sends,
        and builds no message.  The loads have a closed form: a source
        whose requests sum to W_s words loads each of its k − 1 links
        with W_s and sends (k − 1)·W_s, a machine receives the requests'
        total W minus its own W_s, and the sends add their per-pair sums.
        Strict mode checks each request once, since every copy carries
        the same payload and width.  Needs k ≥ 2 when there are requests
        (one machine has no links); :meth:`fanout` sends k = 1 to the
        reference path.
        """
        k = self.k
        per_src: Dict[int, int] = {}
        for src, _payload, words in requests:
            if words <= 0:
                raise ValueError("message size must be positive")
            per_src[src] = per_src.get(src, 0) + words
        pair_words: Dict[Tuple[int, int], int] = {}
        for s, d, _payload, w in sends:
            if w <= 0:
                raise ValueError("message size must be positive")
            if s == d:
                raise ValueError("self-messages are free; do not send them")
            pair_words[(s, d)] = pair_words.get((s, d), 0) + w
        if self.strict:
            # A request's first copy goes to machine 0 (1 from machine 0).
            self._strict_pre_superstep(chain(
                ((src, 1 if src == 0 else 0, payload, words)
                 for (src, payload, words) in requests),
                sends,
            ))
        # Sources, then pairs, in first-send order: a bad id is the one
        # the reference path names.
        for src in per_src:
            self._check_endpoint(src)
        for s, d in pair_words:
            self._check_endpoint(s)
            self._check_endpoint(d)
        fanned = sum(per_src.values())
        send = [0] * k
        recv = [fanned] * k
        for src, w in per_src.items():
            send[src] = (k - 1) * w
            recv[src] -= w
        worst = max(per_src.values(), default=0)
        for (s, d), w in pair_words.items():
            send[s] += w
            recv[d] += w
            worst = max(worst, w + per_src.get(s, 0))
        sizes: Optional[Dict[int, int]] = None
        if self.ledger.recorder is not None:
            sizes = {}
            for _src, _payload, words in requests:
                sizes[words] = sizes.get(words, 0) + k - 1
            for _s, _d, _payload, w in sends:
                sizes[w] = sizes.get(w, 0) + 1
        self._charge(
            "columnar", len(requests) * (k - 1) + len(sends), sum(send),
            worst, send, recv, sizes,
        )

    def _pair_loads(
        self, pair_words: Dict[Tuple[int, int], int]
    ) -> Tuple[int, List[int], List[int]]:
        """The worst ordered-pair load and every machine's send and
        receive totals, from per-pair loads."""
        send = [0] * self.k
        recv = [0] * self.k
        for (s, d), w in pair_words.items():
            send[s] += w
            recv[d] += w
        return max(pair_words.values(), default=0), send, recv

    def _charge(
        self,
        engine: str,
        n_msgs: int,
        n_words: int,
        worst_pair: int,
        send: List[int],
        recv: List[int],
        sizes: Optional[Dict[int, int]],
    ) -> None:
        """Book one superstep: gauges, trace context, then the charge."""
        ingress, egress = self.ingress_words, self.egress_words
        for m in range(self.k):
            ingress[m] += recv[m]
            egress[m] += send[m]
        recorder = self.ledger.recorder
        if recorder is not None:
            recorder.on_superstep(engine, n_msgs, n_words, send, recv, sizes or {})
        rounds = self.rounds_for(worst_pair, send, recv)
        if self.strict and n_words > 0 and rounds < 1:
            self._strict_violation(
                f"superstep moved {n_words} word(s) but "
                f"{type(self).__name__}.rounds_for charged {rounds} rounds"
            )
        self.ledger.charge(rounds, n_msgs, n_words)

    def _charge_retries(self, retries: Sequence[RetryWave]) -> None:
        """Charge each retransmission wave under the ``fault-retry`` phase.

        A wave occupies at least one round even if its load would round
        down — retransmission happens after the original barrier, so it
        cannot hide inside the superstep it repairs.
        """
        for wave in retries:
            rounds = max(1, self.rounds_for(*self._pair_loads(wave.pair_words)))
            with self.ledger.phase("fault-retry"):
                self.ledger.charge(rounds, wave.n_messages, wave.n_words)

    def broadcast(self, src: int, payload: Any, words: int) -> None:
        """One machine sends the same ``words`` over all its links."""
        self.fanout([(src, payload, words)])

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

    def _strict_pre_superstep(self, sends: Iterable[Send]) -> None:
        """The strict checks of one superstep: the entropy guard, then each
        send's declared width against its payload, in send order."""
        guard = self._entropy_guard
        if guard is not None:
            try:
                guard.check("this superstep")
            except StrictModeViolation as exc:
                self._count_violation(exc)
                raise
        for src, dst, payload, words in sends:
            try:
                check_message_words(src, dst, payload, words)
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
        fast: Optional[bool] = None,
    ) -> None:
        super().__init__(k, ledger, machine_budget, strict=strict, fast=fast)
        if words_per_round < 1:
            raise ValueError("words_per_round must be >= 1")
        self.words_per_round = words_per_round

    def rounds_for(
        self, worst_pair: int, send: Sequence[int], recv: Sequence[int]
    ) -> int:
        return _ceil_div(worst_pair, self.words_per_round)


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
        fast: Optional[bool] = None,
    ) -> None:
        super().__init__(
            k, ledger, machine_budget=space if enforce_budget else None,
            strict=strict, fast=fast,
        )
        if space < 1:
            raise ValueError("space must be >= 1")
        self.space = space

    def relay_multiplicity(self, words: int) -> int:
        if self.k <= 1:
            return 1
        return max(1, self.space // max(1, (self.k - 1) * words))

    def rounds_for(
        self, worst_pair: int, send: Sequence[int], recv: Sequence[int]
    ) -> int:
        return _ceil_div(max(max(send), max(recv)), self.space)
