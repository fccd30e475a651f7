"""The MPC facade: :class:`MPCDynamicMST` (Theorem 8.1).

Same protocols as :class:`~repro.core.api.DynamicMST`, but:

* the network is :class:`~repro.sim.network.MPCNetwork` (each machine
  sends/receives at most S words per round), so every measured round
  count reflects the MPC cost rule;
* storage follows the lexicographic edge partition; the "machine hosting
  v" of the protocols becomes v's *leader machine* (§8);
* initialisation is :func:`repro.mpc.init_mpc.mpc_init` — O(log n)
  measured rounds instead of O(n/S);
* a batch may carry up to S updates.

Per §8's data-structure adjustment, the witness cache conceptually moves
onto each edge copy; we keep the leader-resident representation and
account the duplicated-edge storage in the machine gauges — the round
counts are unaffected because witness reads are always machine-local in
both layouts.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from repro.core.api import DynamicMST, _fast
from repro.core.init_build import free_init
from repro.errors import InconsistentUpdate
from repro.graphs.generators import RngLike, as_rng
from repro.graphs.graph import WeightedGraph
from repro.mpc.init_mpc import mpc_init
from repro.sim.metrics import TraceSink
from repro.sim.network import MPCNetwork
from repro.sim.partition import (
    VertexPartition,
    lexicographic_edge_partition,
)


class MPCDynamicMST(DynamicMST):
    """Batch-dynamic exact MST in the MPC model."""

    @classmethod
    def build(
        cls,
        graph: WeightedGraph,
        k: int,
        rng: RngLike = None,
        engine: str = "sample_gather",
        init: str = "mpc",
        space: Optional[int] = None,
        trace: Optional[TraceSink] = None,
        backend: Optional[str] = None,
    ) -> "MPCDynamicMST":
        """Partition ``graph`` over k MPC machines with space S each.

        ``space`` defaults to ceil(4m/k) + Θ(k) so that kS = Θ(m) with
        room for the doubled (directed) edge copies and scratch state.
        ``trace`` and ``backend`` act as in
        :meth:`repro.core.api.DynamicMST.build`: the recorder is attached
        before init, and the named engine runs init and every batch.
        """
        rng = as_rng(rng)
        if space is None:
            space = max(-(-4 * max(graph.m, 1) // k), 4 * k, 16)
        net = MPCNetwork(k, space=space, enforce_budget=False, fast=_fast(backend))
        ep = lexicographic_edge_partition(graph, k)
        vp = VertexPartition(k, dict(ep.leader))
        dm = cls(graph, k, vp, net, engine=engine, rng=rng)
        dm.edge_partition = ep
        dm.space = space
        if init == "mpc":
            run = partial(mpc_init, net, vp, dm.states, sorted(graph.vertices()),
                          batch_limit=space)
        elif init == "free":
            run = partial(free_init, graph, vp, dm.states)
        else:
            raise ValueError(f"unknown MPC init mode {init!r}")
        dm._initialise(run, trace)
        return dm

    @property
    def batch_capacity(self) -> int:
        """Θ(S): an MPC batch may carry up to the per-machine space (§8)."""
        return self.space

    def apply_batch(self, batch):  # type: ignore[override]
        if len(batch) > self.space:
            raise InconsistentUpdate(
                f"MPC batch of {len(batch)} exceeds the per-round budget S={self.space}"
            )
        return super().apply_batch(batch)

    def _trace_meta(self) -> Dict[str, object]:
        """MPC runs are budgeted against Theorem 8.1: capacity is S, not k."""
        meta = super()._trace_meta()
        meta["model"] = "mpc"
        meta["space"] = self.space
        meta.pop("words_per_round", None)
        return meta
