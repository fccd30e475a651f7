"""Admission buffers: the raw FIFO and the coalescing normaliser.

Both buffers sit between an :class:`~repro.graphs.streams.ArrivalStream`
and the batch-dynamic core.  They admit one raw update at a time and,
when the scheduler decides to cut, emit a list of *sub-batches* that are
each valid :meth:`~repro.core.api.DynamicMST.apply_batch` input: no edge
pair appears twice within one sub-batch, and every update is consistent
against the applied graph at the moment its sub-batch lands.

:class:`AdmissionBuffer` ships every admitted update (the uncoalesced
baseline).  :class:`CoalescingBuffer` normalises churn before it costs
any rounds:

* duplicate inserts / duplicate deletes of the same pair dedup
  (last-write-wins on the weight for inserts);
* an insert chased by a delete of the same still-queued edge
  *annihilates* — neither update ships;
* a delete of an applied edge followed by a re-insert collapses to a
  *re-weight*, shipped as delete + add split across two sub-batches.

The per-pair state machine is relative to the **applied** graph (what
the cluster has actually executed), so a cut may select any prefix of
pending entries: pairs are independent, and each entry's net effect is
valid against the applied graph whether or not other entries ship in
the same cut.  Coalescing therefore never changes the final graph — it
only reduces how many updates reach the Θ(k)/Θ(S) machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graphs.streams import Update

Pair = Tuple[int, int]


@dataclass
class CutResult:
    """What one scheduler cut hands to the batch machinery."""

    #: Pair-disjoint sub-batches, to be applied in order.
    batches: List[List[Update]]
    #: Arrival tick of every raw update the cut ships (one entry per
    #: shipped update; a re-weight contributes its delete's and its
    #: add's ticks).
    shipped_ticks: List[int]

    @property
    def shipped(self) -> int:
        return len(self.shipped_ticks)


class AdmissionBuffer:
    """The uncoalesced baseline: a FIFO that ships everything it admits.

    A cut takes the oldest ``limit`` updates in arrival order and splits
    them into consecutive sub-batches, starting a new sub-batch whenever
    the current one already touches the pair.  Order preservation plus
    per-emission stream consistency make every sub-batch valid at its
    application point.
    """

    coalesces = False

    def __init__(self) -> None:
        self._q: List[Tuple[int, Update]] = []
        self.admitted = 0
        self.absorbed = 0

    def admit(self, update: Update, arrival_tick: int, now: int) -> None:
        self.admitted += 1
        self._q.append((arrival_tick, update))

    @property
    def pending_cost(self) -> int:
        """Updates that would ship if everything were cut now."""
        return len(self._q)

    @property
    def oldest_tick(self) -> Optional[int]:
        return self._q[0][0] if self._q else None

    def cut(self, limit: int) -> CutResult:
        take = self._q[: max(limit, 1)]
        del self._q[: max(limit, 1)]
        batches: List[List[Update]] = []
        cur: List[Update] = []
        pairs: set = set()
        ticks: List[int] = []
        for tick, upd in take:
            if upd.endpoints in pairs:
                batches.append(cur)
                cur, pairs = [], set()
            cur.append(upd)
            pairs.add(upd.endpoints)
            ticks.append(tick)
        if cur:
            batches.append(cur)
        return CutResult(batches=batches, shipped_ticks=ticks)

    def drain_resolved(self) -> List[int]:
        """Latencies of arrivals resolved without shipping (always none)."""
        return []


@dataclass
class _Entry:
    """Net pending effect for one edge pair, relative to the applied graph.

    ``kind`` is "add" (pair absent in the applied graph, insert queued),
    "delete" (pair present, removal queued) or "reweight" (pair present,
    delete + re-insert queued).  ``ticks`` holds the arrival tick of each
    raw update the entry still represents — exactly one for add/delete,
    exactly two (delete's, then add's) for reweight — so its length is
    the entry's shipping cost.
    """

    kind: str
    weight: Optional[float]
    ticks: List[int] = field(default_factory=list)

    @property
    def cost(self) -> int:
        return 2 if self.kind == "reweight" else 1


class CoalescingBuffer:
    """Per-pair coalescing admission buffer (dedup / annihilate / LWW)."""

    coalesces = True

    def __init__(self) -> None:
        # Insertion-ordered: the first entry is always the one whose
        # earliest pending arrival is oldest, because an entry's ticks[0]
        # is its creation tick and entries only leave by shipping or
        # annihilating.
        self._entries: Dict[Pair, _Entry] = {}
        self._cost = 0
        self._resolved: List[int] = []
        self.admitted = 0
        self.absorbed = 0

    def _absorb(self, arrival_tick: int, now: int) -> None:
        self.absorbed += 1
        self._resolved.append(max(now - arrival_tick, 0))

    def admit(self, update: Update, arrival_tick: int, now: int) -> None:
        self.admitted += 1
        pair = update.endpoints
        e = self._entries.get(pair)
        if e is None:
            self._entries[pair] = _Entry(update.kind, update.weight, [arrival_tick])
            self._cost += 1
            return
        if update.kind == "add":
            if e.kind == "delete":
                # Delete of an applied edge chased by a re-insert: a
                # re-weight — both raw updates still ship.
                e.kind = "reweight"
                e.weight = update.weight
                e.ticks.append(arrival_tick)
                self._cost += 1
            else:
                # Duplicate insert ("add" or the re-insert leg of a
                # "reweight"): last write wins on the weight.
                self._absorb(e.ticks.pop(), now)
                e.weight = update.weight
                e.ticks.append(arrival_tick)
        else:
            if e.kind == "add":
                # Queued insert annihilated before it ever cost a round;
                # the delete itself is absorbed too.
                del self._entries[pair]
                self._cost -= 1
                for t in e.ticks:
                    self._absorb(t, now)
                self._absorb(arrival_tick, now)
            elif e.kind == "delete":
                # Duplicate delete: drop the newcomer.
                self._absorb(arrival_tick, now)
            else:
                # Re-weight chased by a delete: net effect is the plain
                # delete of the applied edge (the re-insert annihilates).
                self._absorb(e.ticks[1], now)
                self._absorb(arrival_tick, now)
                e.kind = "delete"
                e.weight = None
                e.ticks = [e.ticks[0]]
                self._cost -= 1

    @property
    def pending_cost(self) -> int:
        """Updates that would ship if everything were cut now."""
        return self._cost

    @property
    def oldest_tick(self) -> Optional[int]:
        if not self._entries:
            return None
        return next(iter(self._entries.values())).ticks[0]

    def pending_presence(self, pair: Pair) -> Optional[bool]:
        """Is ``pair`` present once its pending entry lands?  ``None``
        when nothing is pending for it (the applied graph decides)."""
        e = self._entries.get(pair)
        return None if e is None else e.kind != "delete"

    def cut(self, limit: int) -> CutResult:
        take: List[Tuple[Pair, _Entry]] = []
        cost = 0
        for pair, e in self._entries.items():
            if take and cost + e.cost > max(limit, 1):
                break
            take.append((pair, e))
            cost += e.cost
        first_wave: List[Update] = []   # deletes, adds, re-weight deletes
        second_wave: List[Update] = []  # re-weight re-inserts
        ticks: List[int] = []
        for pair, e in take:
            del self._entries[pair]
            self._cost -= e.cost
            if e.kind == "add":
                first_wave.append(Update.add(*pair, e.weight))
            elif e.kind == "delete":
                first_wave.append(Update.delete(*pair))
            else:
                first_wave.append(Update.delete(*pair))
                second_wave.append(Update.add(*pair, e.weight))
            ticks.extend(e.ticks)
        batches = [wave for wave in (first_wave, second_wave) if wave]
        return CutResult(batches=batches, shipped_ticks=ticks)

    def drain_resolved(self) -> List[int]:
        """Latencies of arrivals coalesced away since the last drain."""
        out, self._resolved = self._resolved, []
        return out
