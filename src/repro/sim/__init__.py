"""Round-accurate simulator for synchronous message-passing cluster models.

The simulator replaces the physical cluster (see DESIGN.md, substitution
table): machines are objects holding local state, and communication happens
in synchronous *super-steps*.  Each super-step declares the words flowing
over every ordered machine pair; the network converts that load into a
round count under the model's per-link capacity and records it in a
:class:`~repro.sim.metrics.Ledger`.

The paper's models differ only in bandwidth scaling (§4, Lenzen):

* k-machine — every ordered pair carries 1 word (Θ(log n) bits) per round;
* CONGESTED CLIQUE — the k = n special case, same per-link capacity;
* MPC — each machine sends/receives O(S) words per round in total
  (modelled by :class:`~repro.sim.network.MPCNetwork`).
"""

from repro.sim.message import (
    WORDS_COMPONENT_EDGE,
    WORDS_EDGE,
    WORDS_ET_EDGE,
    WORDS_ID,
    WORDS_UPDATE,
    Message,
)
from repro.sim.metrics import Ledger, PhaseStats
from repro.sim.machine import Machine
from repro.sim.network import (
    FaultHook,
    FaultOutcome,
    KMachineNetwork,
    MPCNetwork,
    Network,
    RetryWave,
)
from repro.sim.partition import (
    VertexPartition,
    EdgePartition,
    lexicographic_edge_partition,
    random_vertex_partition,
)
from repro.sim.program import MachineProgram, run_programs
from repro.sim.strict import (
    GuardedState,
    estimate_payload_words,
    strict_from_env,
)

__all__ = [
    "Message",
    "WORDS_ID",
    "WORDS_EDGE",
    "WORDS_ET_EDGE",
    "WORDS_UPDATE",
    "WORDS_COMPONENT_EDGE",
    "Ledger",
    "PhaseStats",
    "Machine",
    "Network",
    "KMachineNetwork",
    "MPCNetwork",
    "FaultHook",
    "FaultOutcome",
    "RetryWave",
    "VertexPartition",
    "EdgePartition",
    "random_vertex_partition",
    "lexicographic_edge_partition",
    "MachineProgram",
    "run_programs",
    "GuardedState",
    "estimate_payload_words",
    "strict_from_env",
]
