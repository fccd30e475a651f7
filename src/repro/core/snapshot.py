"""Checkpointing: serialize / restore a :class:`DynamicMST`.

A long-running maintenance service needs to survive restarts without
paying the O(n/k) initialisation again.  Snapshots are plain
JSON-compatible dictionaries (no pickle): the shadow graph, the
partition, every machine's Euler state, and the replicated tour counter.
Restoring yields a structure that passes the full consistency check and
keeps absorbing batches.

Two restore modes share the per-machine record helpers:

* :func:`from_snapshot` builds a *fresh* structure with a zeroed ledger
  (a cold restart does not inherit the old run's communication bill);
* :func:`restore_into` rolls an *existing* structure back in place,
  leaving its network, ledger, recorder and fault hook untouched — the
  crash-recovery path of :mod:`repro.faults`, where every recovery round
  must keep landing on the live ledger.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.core.api import DynamicMST
from repro.core.state import MachineState, MachineStateBase
from repro.errors import ReproError
from repro.graphs.graph import WeightedGraph
from repro.sim.network import KMachineNetwork, MPCNetwork
from repro.sim.partition import VertexPartition

FORMAT_VERSION = 1


def machine_record(st: MachineStateBase) -> Dict[str, Any]:
    """One machine's full Euler state as a JSON-compatible record."""
    return st.record()


def restore_states(records: List[Dict[str, Any]], net: Any) -> List[MachineStateBase]:
    """Rebuild every machine's state from :func:`machine_record` records.

    The storage is the network's engine's (:mod:`repro.core.state`), so a
    structure is restored into its own kind.  Re-registering the states
    against ``net.machines`` re-accounts their space gauges from zero —
    which is what a restarted incarnation after
    :meth:`~repro.sim.machine.Machine.crash_reset` needs.
    """
    if net.fast:
        from repro.perf.columnar import restore_columnar_states

        return list(restore_columnar_states(records, net))
    states: List[MachineStateBase] = []
    for mrec in records:
        st = MachineState(mrec["mid"], mrec["vertices"], machine=net.machines[mrec["mid"]])
        st.load_record(mrec)
        states.append(st)
    return states


def to_snapshot(dm: DynamicMST) -> Dict[str, Any]:
    """Serialize the full distributed state to a JSON-compatible dict."""
    if isinstance(dm.net, MPCNetwork):
        model = {"kind": "mpc", "space": dm.net.space}
    elif isinstance(dm.net, KMachineNetwork):
        model = {"kind": "kmachine", "words_per_round": dm.net.words_per_round}
    else:
        raise ReproError(f"cannot snapshot network type {type(dm.net).__name__}")
    return {
        "format": FORMAT_VERSION,
        "k": dm.k,
        "engine": dm.engine,
        "next_tour_id": dm._next_tour_id,
        "model": model,
        "vertices": sorted(dm.shadow.vertices()),
        "edges": [[e.u, e.v, e.weight] for e in sorted(dm.shadow.edges(), key=lambda e: e.key())],
        "machine_of": {str(v): m for v, m in dm.vp.machine_of.items()},
        "machines": [machine_record(st) for st in dm.states],
    }


def from_snapshot(snap: Dict[str, Any]) -> DynamicMST:
    """Rebuild a DynamicMST from :func:`to_snapshot` output.

    The network ledger starts at zero (a restart does not inherit the old
    run's communication bill).
    """
    if snap.get("format") != FORMAT_VERSION:
        raise ReproError(f"unsupported snapshot format {snap.get('format')!r}")
    k = snap["k"]
    graph = WeightedGraph(snap["vertices"])
    for (u, v, w) in snap["edges"]:
        graph.add_edge(u, v, w)
    vp = VertexPartition(k, {int(v): m for v, m in snap["machine_of"].items()})
    model = snap["model"]
    if model["kind"] == "mpc":
        from repro.mpc.api import MPCDynamicMST

        net = MPCNetwork(k, space=model["space"], enforce_budget=False)
        dm = MPCDynamicMST(graph, k, vp, net, engine=snap["engine"])
        dm.space = model["space"]
    else:
        net = KMachineNetwork(k, words_per_round=model["words_per_round"])
        dm = DynamicMST(graph, k, vp, net, engine=snap["engine"])
    dm._next_tour_id = snap["next_tour_id"]
    dm.states = restore_states(snap["machines"], net)
    return dm


def restore_into(dm: DynamicMST, snap: Dict[str, Any]) -> None:
    """Roll an existing structure back to ``snap`` in place (rollback).

    The network object — its ledger, charge transcript, attached trace
    recorder and fault hook — is deliberately untouched: a rollback is a
    *recovery* step of a live run, and the rounds it (and the replay
    that follows it) cost must keep accumulating on the same bill.
    Machine protocol state, the shadow graph, the vertex partition and
    the replicated tour counter are all restored; space gauges are
    re-accounted from zero per machine (the restarted incarnations).
    """
    if snap.get("format") != FORMAT_VERSION:
        raise ReproError(f"unsupported snapshot format {snap.get('format')!r}")
    if snap["k"] != dm.k:
        raise ReproError(
            f"snapshot is for k={snap['k']} machines, structure has k={dm.k}"
        )
    graph = WeightedGraph(snap["vertices"])
    for (u, v, w) in snap["edges"]:
        graph.add_edge(u, v, w)
    dm.shadow = graph
    dm.vp = VertexPartition(dm.k, {int(v): m for v, m in snap["machine_of"].items()})
    dm._next_tour_id = snap["next_tour_id"]
    dm.states = restore_states(snap["machines"], dm.net)


def dump(dm: DynamicMST, path: str) -> None:
    """Write a snapshot to ``path`` as JSON."""
    with open(path, "w") as f:
        json.dump(to_snapshot(dm), f)


def load(path: str) -> DynamicMST:
    """Read a snapshot from ``path``."""
    with open(path) as f:
        return from_snapshot(json.load(f))
