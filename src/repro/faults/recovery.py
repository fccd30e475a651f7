"""Checkpoint/rollback recovery for :class:`DynamicMST` under crashes.

The recovery protocol is coordinated checkpointing with log-based
replay, the classic rollback-recovery discipline adapted to the
synchronous k-machine model:

* **checkpoint** — at a batch barrier, every machine writes its Euler
  state to stable storage.  Coordinating the cut costs one
  synchronization round, charged under the ``checkpoint`` ledger phase;
  the write itself is local I/O and moves nothing over the wire.
  Snapshots are *compact*: the per-machine records of
  :mod:`repro.core.snapshot` (tours, MST replicas, witnesses, graph
  shards) — O(local state) words, no derived indexes.
* **log** — update batches applied since the last checkpoint are kept by
  the driver (they are the system's input, not cluster state).
* **rollback + replay** — on a crash, every machine reloads the last
  checkpoint from stable storage (local read, no wire cost), the
  crashed machine restarts with a zeroed space ledger, and the logged
  batches are re-executed through the ordinary update protocols.  The
  replay's rounds are real protocol rounds and land on the live ledger
  under the ``recovery`` phase — recovery overhead is measured in the
  same currency as Theorem 6.6's update bounds, so round-overhead
  claims stay checkable under faults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.api import DynamicMST
from repro.core.snapshot import restore_into, to_snapshot
from repro.errors import ReproError
from repro.graphs.streams import Update

#: Ledger phases charged by the fault/recovery machinery.  Their summed
#: rounds are the "recovery overhead" ``run_chaos`` reports.
OVERHEAD_PHASES = ("checkpoint", "recovery", "fault-retry")


def overhead_rounds(dm: DynamicMST) -> int:
    """Rounds charged to fault/recovery phases on ``dm``'s ledger.

    Ledger phases nest: a charge is attributed to *every* name on the
    phase stack, so a retransmission wave fired during replay lands on
    both ``recovery`` and ``fault-retry``.  This sum is therefore an
    inclusive upper envelope (exact whenever no retry fires inside a
    replay); callers wanting the per-phase split should read
    ``dm.net.ledger.phases`` directly.
    """
    phases = dm.net.ledger.phases
    total = 0
    for name in OVERHEAD_PHASES:
        stats = phases.get(name)
        if stats is not None:
            total += stats.rounds
    return total


class CheckpointManager:
    """Coordinated snapshots plus the since-checkpoint update log."""

    def __init__(self, dm: DynamicMST, every: Optional[int] = None) -> None:
        if every is not None and every < 1:
            raise ValueError("checkpoint interval must be >= 1 (or None)")
        self.dm = dm
        self.every = every
        self.log: List[List[Update]] = []
        self._snap: Optional[Dict[str, Any]] = None
        self.checkpoints = 0

    @property
    def has_checkpoint(self) -> bool:
        return self._snap is not None

    def checkpoint(self, batch_index: int) -> None:
        """Take a coordinated snapshot at a batch barrier.

        Charges one synchronization round (the coordinated cut) under the
        ``checkpoint`` phase; the state write is local stable storage.
        """
        net = self.dm.net
        with net.ledger.phase("checkpoint"):
            net.charge_rounds(1)
        self._snap = to_snapshot(self.dm)
        self.log.clear()
        self.checkpoints += 1
        recorder = net.ledger.recorder
        if recorder is not None:
            recorder.emit(
                "checkpoint",
                batch=batch_index,
                machines=self.dm.k,
                log_cleared=True,
            )

    def record(self, batch: Sequence[Update]) -> None:
        """Append one applied batch to the since-checkpoint log."""
        self.log.append(list(batch))

    def due(self, applied_batches: int) -> bool:
        """Is a periodic checkpoint due after this many applied batches?"""
        return self.every is not None and applied_batches % self.every == 0

    def rollback(self) -> List[List[Update]]:
        """Restore the last checkpoint in place; return batches to replay.

        The log is *kept*: the replayed batches are still "since the
        checkpoint" until the next checkpoint clears them, so a second
        crash during or after replay rolls back to the same cut and
        replays the same log — recovery is idempotent.
        """
        if self._snap is None:
            raise ReproError("no checkpoint to roll back to")
        restore_into(self.dm, self._snap)
        return [list(b) for b in self.log]
