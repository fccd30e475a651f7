"""Public facade: :class:`DynamicMST`.

Wraps the k-machine simulator, the partition, the per-machine Euler
states, and the §5/§6 protocols behind a small API:

    >>> from repro.core import DynamicMST
    >>> from repro.graphs import random_weighted_graph, Update
    >>> g = random_weighted_graph(100, 300, rng=0)
    >>> dm = DynamicMST.build(g, k=8, rng=0)
    >>> report = dm.apply_batch([Update.add(3, 77, 0.5), Update.delete(0, 1)])
    >>> report.rounds  # communication rounds this batch cost  # doctest: +SKIP

The object also maintains a *shadow graph* (the sequential ground truth)
used for input validation and for :meth:`check`, which verifies the full
distributed state against first principles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cclique.engines import get_engine
from repro.core.batch_addition import batch_add
from repro.core.batch_deletion import batch_delete
from repro.core.checker import check_global_consistency
from repro.core.init_build import distributed_init, free_init, make_states
from repro.core.single_update import single_add, single_delete
from repro.core.state import Forest
from repro.errors import InconsistentUpdate
from repro.graphs.generators import RngLike, as_rng
from repro.graphs.graph import Edge, WeightedGraph, normalize
from repro.graphs.streams import Update
from repro.sim.executor import backend_from_env, get_backend
from repro.sim.metrics import TraceSink
from repro.sim.network import FaultHook, KMachineNetwork
from repro.sim.partition import VertexPartition, random_vertex_partition


@dataclass
class BatchReport:
    """Cost and outcome of one applied batch."""

    size: int
    rounds: int
    messages: int
    words: int
    mode: str  # "batch" or "one_at_a_time"
    details: Dict[str, int] = field(default_factory=dict)


def _fast(backend: Optional[str]) -> bool:
    """The engine flag a build pins: ``backend``, else ``REPRO_BACKEND``."""
    return (get_backend(backend) if backend is not None else backend_from_env()).fast


class DynamicMST:
    """Batch-dynamic exact MST over a simulated k-machine cluster."""

    def __init__(
        self,
        graph: WeightedGraph,
        k: int,
        vp: VertexPartition,
        net: KMachineNetwork,
        engine: str = "sample_gather",
        rng: RngLike = None,
    ) -> None:
        # An unknown name raises here: §6.2 step 8 is the first to run
        # the engine, after step 1 has dropped a batch's graph edges.
        get_engine(engine)
        self.k = k
        self.net = net
        self.vp = vp
        self.engine = engine
        self.rng = as_rng(rng)
        self.shadow = graph.copy()
        self.states, self._next_tour_id = make_states(graph, vp, net)
        self.init_rounds = 0
        self.reports: List[BatchReport] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: WeightedGraph,
        k: int,
        rng: RngLike = None,
        engine: str = "sample_gather",
        init: str = "distributed",
        words_per_round: int = 1,
        vp: Optional[VertexPartition] = None,
        trace: Optional[TraceSink] = None,
        backend: Optional[str] = None,
    ) -> "DynamicMST":
        """Partition ``graph`` over ``k`` machines and build the structure.

        ``init="distributed"`` runs the Theorem 5.8 protocol (O(n/k +
        log n) measured rounds); ``init="free"`` installs the structure
        from the oracle without charging the ledger (for update-focused
        benchmarks).  ``backend`` names the engine: ``reference`` or
        ``inproc-columnar`` (see :mod:`repro.sim.executor`); both charge
        byte-identical ledgers.  With ``None``, ``REPRO_BACKEND`` is
        resolved once, here.  The engine is fixed at build: it picks the
        machines' storage (dicts or resident fleet columns, see
        :mod:`repro.core.state`) and runs init and every later operation,
        so an instance never switches engine mid-run.  ``trace``
        attaches a recorder *before* initialisation, so a measured init's
        charges are part of the trace (charge indices must be contiguous
        from 0 — a recorder attached after a distributed init would start
        mid-transcript).
        """
        rng = as_rng(rng)
        net = KMachineNetwork(k, words_per_round=words_per_round, fast=_fast(backend))
        if vp is None:
            vp = random_vertex_partition(sorted(graph.vertices()), k, rng)
        dm = cls(graph, k, vp, net, engine=engine, rng=rng)
        if init == "distributed":
            run = partial(distributed_init, net, vp, dm.states, sorted(graph.vertices()))
        elif init == "free":
            run = partial(free_init, graph, vp, dm.states)
        else:
            raise ValueError(f"unknown init mode {init!r}")
        dm._initialise(run, trace)
        return dm

    def _initialise(
        self,
        run: Callable[[int], Tuple[object, int]],
        trace: Optional[TraceSink],
    ) -> None:
        """Attach ``trace``, then run the init step ``run``.

        ``run`` takes the tour-id counter and returns ``(msf, counter)``;
        the rounds it charges become :attr:`init_rounds`.  Every facade's
        ``build`` ends here.
        """
        if trace is not None:
            self.attach_trace(trace)
        before = self.net.ledger.snapshot()
        _msf, self._next_tour_id = run(self._next_tour_id)
        self.init_rounds = self.net.ledger.since(before).rounds

    @property
    def fast(self) -> bool:
        """Does this instance run the columnar engine?  Fixed at build."""
        return self.net.fast

    # ------------------------------------------------------------------
    # observability (repro.trace)
    # ------------------------------------------------------------------
    def _trace_meta(self) -> Dict[str, object]:
        """Model metadata stamped into the ``run_start`` trace event."""
        meta: Dict[str, object] = {
            "model": "k-machine",
            "k": self.k,
            "words_per_round": getattr(self.net, "words_per_round", None),
            "engine": self.engine,
            "n": self.shadow.n,
            "m": self.shadow.m,
            "strict": self.net.strict,
        }
        faults = self.net.faults
        if faults is not None and faults.enabled:
            # Stamped only for runs that can actually inject something, so
            # an empty fault plan leaves traces byte-identical to a run
            # with no hook at all.
            meta["faults"] = True
        return meta

    def attach_trace(self, recorder: TraceSink) -> None:
        """Install a trace recorder and announce the run's model metadata.

        ``recorder`` is any :class:`~repro.sim.metrics.TraceSink` — in
        practice a :class:`repro.trace.recorder.TraceRecorder`.  Every
        subsequent superstep/charge/phase/violation is emitted as a
        structured event until :meth:`detach_trace`.
        """
        self.net.ledger.recorder = recorder
        recorder.emit("run_start", **self._trace_meta())

    def detach_trace(self) -> None:
        """Emit the ``run_end`` totals and detach the recorder."""
        ledger = self.net.ledger
        recorder = ledger.recorder
        if recorder is None:
            return
        recorder.emit(
            "run_end",
            rounds=ledger.rounds,
            messages=ledger.messages,
            words=ledger.words,
            digest=ledger.digest(),
            strict_violations=self.net.strict_violations,
        )
        ledger.recorder = None

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def attach_faults(self, hook: FaultHook) -> None:
        """Install a transport fault hook (see :mod:`repro.faults`).

        While attached *and enabled*, every superstep passes through the
        hook: messages may be dropped (and retransmitted under the
        ``fault-retry`` phase), duplicated, reordered within the round,
        or black-holed at crashed machines.  A disabled hook (empty fault
        plan, nothing crashed) leaves the network path untouched —
        ledgers and traces stay byte-identical to a run with no hook.
        """
        self.net.faults = hook

    def detach_faults(self) -> None:
        """Remove the fault hook; subsequent supersteps run fault-free."""
        self.net.faults = None

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _validate_batch(self, batch: Sequence[Update]) -> Tuple[List, List]:
        adds: List[Tuple[int, int, float]] = []
        dels: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for upd in batch:
            pair = upd.endpoints
            if pair in seen:
                raise InconsistentUpdate(f"edge {pair} updated twice in one batch")
            seen.add(pair)
            if not (self.shadow.has_vertex(upd.u) and self.shadow.has_vertex(upd.v)):
                raise InconsistentUpdate(f"unknown vertex in update {upd}")
            if upd.kind == "add":
                if self.shadow.has_edge(*pair):
                    raise InconsistentUpdate(f"cannot add existing edge {pair}")
                adds.append((upd.u, upd.v, upd.weight))
            else:
                if not self.shadow.has_edge(*pair):
                    raise InconsistentUpdate(f"cannot delete missing edge {pair}")
                dels.append(pair)
        return adds, dels

    def apply_batch(self, batch: Sequence[Update]) -> BatchReport:
        """Apply a mixed batch: deletions first (§6.2), then additions (§6.1)."""
        adds, dels = self._validate_batch(batch)
        recorder = self.net.ledger.recorder
        if recorder is not None:
            recorder.emit("batch_start", size=len(batch), mode="batch")
        before = self.net.ledger.snapshot()
        details: Dict[str, int] = {}
        if dels:
            self._next_tour_id, d = batch_delete(
                self.net, self.vp, self.states, dels, self._next_tour_id,
                engine=self.engine, rng=self.rng,
            )
            details.update({f"del_{k}": v for k, v in d.items()})
            for (u, v) in dels:
                self.shadow.remove_edge(u, v)
        if adds:
            self._next_tour_id, d = batch_add(
                self.net, self.vp, self.states, adds, self._next_tour_id
            )
            details.update({f"add_{k}": v for k, v in d.items()})
            for (u, v, w) in adds:
                self.shadow.add_edge(u, v, w)
        delta = self.net.ledger.since(before)
        report = BatchReport(
            size=len(batch), rounds=delta.rounds, messages=delta.messages,
            words=delta.words, mode="batch", details=details,
        )
        if recorder is not None:
            recorder.emit(
                "batch_end", size=report.size, mode=report.mode,
                rounds=report.rounds, messages=report.messages,
                words=report.words, details=details,
            )
        self.reports.append(report)  # simlint: disable=SIM005 driver-side measurement log, not machine state
        self._prune_tours()
        return report

    def apply_one_at_a_time(self, batch: Sequence[Update]) -> BatchReport:
        """Baseline: process a batch as individual §5.4 updates."""
        adds, dels = self._validate_batch(batch)
        recorder = self.net.ledger.recorder
        if recorder is not None:
            recorder.emit("batch_start", size=len(batch), mode="one_at_a_time")
        before = self.net.ledger.snapshot()
        with self.net.ledger.phase("one_at_a_time"):
            for (u, v) in dels:
                self._next_tour_id, _ = single_delete(
                    self.net, self.vp, self.states, u, v, self._next_tour_id
                )
                self.shadow.remove_edge(u, v)
            for (u, v, w) in adds:
                self._next_tour_id, _ = single_add(
                    self.net, self.vp, self.states, u, v, w, self._next_tour_id
                )
                self.shadow.add_edge(u, v, w)
        delta = self.net.ledger.since(before)
        report = BatchReport(
            size=len(batch), rounds=delta.rounds, messages=delta.messages,
            words=delta.words, mode="one_at_a_time",
        )
        if recorder is not None:
            recorder.emit(
                "batch_end", size=report.size, mode=report.mode,
                rounds=report.rounds, messages=report.messages,
                words=report.words,
            )
        self.reports.append(report)  # simlint: disable=SIM005 driver-side measurement log, not machine state
        self._prune_tours()
        return report

    def apply(self, batch: Sequence[Update], mode: str = "auto") -> BatchReport:
        """Dispatch a batch: "batch" (§6), "one_at_a_time" (§5.4), or
        "auto" — the batch protocols' fixed costs only pay off beyond a
        couple of updates, so tiny batches take the single-update path."""
        if mode == "auto":
            mode = "one_at_a_time" if len(batch) <= 2 else "batch"
        if mode == "batch":
            return self.apply_batch(batch)
        if mode == "one_at_a_time":
            return self.apply_one_at_a_time(batch)
        raise ValueError(f"unknown mode {mode!r}")

    def add_edge(self, u: int, v: int, w: float) -> BatchReport:
        return self.apply_one_at_a_time([Update.add(u, v, w)])

    # ------------------------------------------------------------------
    # streaming ingestion (repro.stream)
    # ------------------------------------------------------------------
    @property
    def batch_capacity(self) -> int:
        """The model's natural batch size: Θ(k) per Theorem 6.1.

        The streaming scheduler chunks its cuts at this size; the MPC
        subclass overrides it with the per-machine space S (§8).
        """
        return self.k

    def ingest(self, arrivals, coalesce: bool = True):
        """Replay an :class:`~repro.graphs.streams.ArrivalStream` through
        the admission buffer + batch scheduler (see :mod:`repro.stream`).

        Returns a :class:`~repro.stream.ingest.StreamReport`.  Scheduling
        is host-side and charges zero rounds; only the resulting
        :meth:`apply_batch` calls touch the ledger.
        """
        from repro.stream.ingest import StreamIngestor

        return StreamIngestor(self, coalesce=coalesce).run(arrivals)

    # ------------------------------------------------------------------
    # vertex churn (beyond the paper, which fixes the vertex set)
    # ------------------------------------------------------------------
    def add_vertex(self, x: int) -> None:
        """Register a new isolated vertex (O(1) rounds).

        The vertex lands on a random machine per the random-vertex-
        partition rule; its singleton tour id comes from the replicated
        counter so every machine agrees without negotiation.
        """
        if self.shadow.has_vertex(x):
            raise InconsistentUpdate(f"vertex {x} already exists")
        home = int(self.rng.integers(0, self.k))
        self.net.broadcast(home, ("new_vertex", x, self._next_tour_id), 2)
        self.shadow.add_vertex(x)
        self.vp.add_vertex(x, home)
        st = self.states[home]
        st.vertices.add(x)
        st.track(x)
        st.set_tour_id(x, self._next_tour_id)
        st.tour_size[self._next_tour_id] = 0
        self._next_tour_id += 1

    def remove_vertex(self, x: int) -> BatchReport:
        """Remove a vertex, deleting its incident edges first (one batch)."""
        if not self.shadow.has_vertex(x):
            raise InconsistentUpdate(f"vertex {x} does not exist")
        incident = [Update.delete(e.u, e.v) for e in self.shadow.incident_edges(x)]
        report = self.apply_batch(incident) if incident else BatchReport(
            size=0, rounds=0, messages=0, words=0, mode="batch"
        )
        self.net.broadcast(self.vp.home(x), ("del_vertex", x), 1)
        self.shadow.remove_vertex(x)
        home = self.vp.home(x)
        st = self.states[home]
        st.vertices.discard(x)
        for s2 in self.states:
            s2.untrack(x)
        self.vp.remove_vertex(x)
        self._prune_tours()
        return report

    def delete_edge(self, u: int, v: int) -> BatchReport:
        return self.apply_one_at_a_time([Update.delete(u, v)])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def forest(self) -> Forest:
        """Forest edge keys and weights sorted by key, and every vertex
        (sorted) with its component label (the minimum vertex id of its
        tree), read host-side.

        A vertex's tour id names its tree, so the labels come from the
        hosting machines' tour ids — no union-find over the edges.
        """
        if self.fast:
            return self.states[0].fleet.forest()  # type: ignore[attr-defined]
        edges: Dict[Tuple[int, int], float] = {}
        for st in self.states:
            for ete in st.iter_mst():
                edges[(ete.u, ete.v)] = ete.weight
        keys = sorted(edges)
        first: Dict[Optional[int], int] = {}
        tours: List[Optional[int]] = []
        xs = sorted(self.shadow.vertices())
        for x in xs:
            tid = self.states[self.vp.home(x)].tour_id(x)
            tours.append(tid)
            first.setdefault(tid, x)
        return Forest(
            np.array([u for u, _v in keys], dtype=np.int64),
            np.array([v for _u, v in keys], dtype=np.int64),
            np.array([edges[key] for key in keys], dtype=np.float64),
            np.array(xs, dtype=np.int64),
            np.array([first[tid] for tid in tours], dtype=np.int64),
            sum(edges.values()),
        )

    def msf_edges(self) -> Set[Edge]:
        """The current minimum spanning forest (union of machine views)."""
        f = self.forest()
        return {Edge(u, v, w) for u, v, w in zip(f.u.tolist(), f.v.tolist(), f.w.tolist())}

    def in_mst(self, u: int, v: int) -> bool:
        """Would be answered by either hosting machine locally."""
        key = normalize(u, v)
        return self.states[self.vp.home(key[0])].mst_edge(key) is not None

    def total_weight(self) -> float:
        return sum(e.weight for e in self.msf_edges())

    @property
    def rounds(self) -> int:
        return self.net.ledger.rounds

    def peak_space_words(self) -> int:
        return max(m.peak_words for m in self.net.machines)

    # ------------------------------------------------------------------
    # distributed read queries (charged on the ledger; repro.core.queries)
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        """O(1)-round distributed connectivity query."""
        from repro.core import queries

        return queries.connectivity_query(self.net, self.vp, self.states, u, v)

    def batch_connected(self, pairs) -> Dict[Tuple[int, int], bool]:
        """q connectivity queries in O(q/k + 1) rounds."""
        from repro.core import queries

        return queries.batch_connectivity(self.net, self.vp, self.states, pairs)

    def bottleneck_edge(self, u: int, v: int) -> Optional[Tuple[float, int, int]]:
        """Heaviest MST edge on the u–v tree path (None if disconnected)."""
        from repro.core import queries

        return queries.path_max_query(self.net, self.vp, self.states, u, v)

    def distributed_weight(self) -> float:
        """Forest weight via one converge-cast (vs the free local msf sum)."""
        from repro.core import queries

        return queries.forest_weight_query(self.net, self.vp, self.states)

    def component_count(self) -> int:
        """Number of trees in the forest, via one converge-cast."""
        from repro.core import queries

        return queries.component_count_query(self.net, self.vp, self.states)

    def subtree_size(self, x: int) -> int:
        """Vertices below x w.r.t. the current tour root (O(1) rounds)."""
        from repro.core import queries

        return queries.subtree_size_query(self.net, self.vp, self.states, x)

    def lca(self, u: int, v: int) -> Optional[int]:
        """Lowest common ancestor w.r.t. the current tour root, or None."""
        from repro.core import queries

        return queries.lca_query(self.net, self.vp, self.states, u, v)

    def reweight_edge(self, u: int, v: int, new_weight: float) -> BatchReport:
        """Change an edge's weight (delete + re-insert, two mini-batches)."""
        first = self.apply_batch([Update.delete(u, v)])
        second = self.apply_batch([Update.add(u, v, new_weight)])
        merged = BatchReport(
            size=1,
            rounds=first.rounds + second.rounds,
            messages=first.messages + second.messages,
            words=first.words + second.words,
            mode="reweight",
        )
        # simlint: disable=SIM005 driver-side measurement log, not machine state
        self.reports[-2:] = [merged]
        return merged

    # ------------------------------------------------------------------
    # verification / maintenance
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise ProtocolError if the distributed state is inconsistent.

        Centralized instrumentation (free).
        """
        check_global_consistency(self.states, self.shadow, self.vp)

    def _prune_tours(self) -> None:
        """Drop per-machine tour-size entries no longer referenced."""
        for st, live in zip(self.states, self.states[0].live_tour_keys(self.states)):
            st.tour_size = {t: s for t, s in st.tour_size.items() if t in live}
            st.refresh_gauges()
