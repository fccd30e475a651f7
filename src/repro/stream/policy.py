"""The cut rule: when does the scheduler turn the buffer into work?

The paper fixes the batch at Θ(k) (k-machine, Theorem 6.1) or Θ(S)
(MPC §8) and leaves only *when* to cut to the system.  The rule here
cuts a full batch as soon as one is pending, and otherwise never lets
the oldest pending update wait more than :data:`DEADLINE_TICKS` ticks.
It reads host-side queue state only and never touches the ledger:
scheduling charges zero rounds.

The ``"flush"`` reason (end of stream, daemon drain) belongs to
:meth:`~repro.stream.ingest.StreamIngestor.pump`, which cuts whatever is
left once no more arrivals can come.
"""

from __future__ import annotations

from typing import Optional

#: Longest a pending update waits for a batch to fill, in ticks.
DEADLINE_TICKS = 8


def cut_reason(queue_depth: int, oldest_age: int, capacity: int) -> Optional[str]:
    """``"size"``, ``"deadline"``, or ``None`` to keep waiting."""
    if queue_depth >= capacity:
        return "size"
    if queue_depth and oldest_age >= DEADLINE_TICKS:
        return "deadline"
    return None
