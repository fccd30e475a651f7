"""The k-way structural-update engine (Lemma 5.9).

A *structural batch* is an ordered set of MST edge cuts followed by an
ordered set of MST edge links (both cycle-free).  The protocol:

1. For every cut, the home machine of the edge broadcasts the edge's
   Euler snapshot and its tour size; for every link, the home machines of
   the two endpoints broadcast an outgoing value, tour id and tour size.
   All O(k) broadcasts go through the Rerouting Lemma → O(1) rounds.
2. Every machine deterministically builds the same *script*: the sequence
   of :class:`~repro.euler.labels.SplitSpec` / ``JoinSpec`` with fresh
   tour ids from a replicated counter.  Because the broadcast parameters
   were collected *before* any update is applied, the script builder
   cascades every produced spec onto the parameters of the later updates
   ("each machine can keep track of these values, and update them as
   necessary throughout the process", Lemma 5.9).
3. Each machine applies the script to its local labels, witnesses and
   tour bookkeeping — pure local computation.  This module's loops are
   the reference engine over dict storage
   (:class:`~repro.core.state.MachineState`); an ``inproc-columnar``
   instance applies the same script once over its fleet columns
   (:mod:`repro.perf.columnar`).  The parameter collection and the
   witness repair below read the state through its seam and serve both.
4. Endpoints of cut edges re-broadcast fresh witnesses (O(k) broadcasts →
   O(1) rounds), exactly the "additional work ... completed if edges are
   deleted" of the lemma.

Links are parameterised *after* cuts are applied, which is why a batch is
two homogeneous phases; §6's protocols always produce cut-then-link
batches, matching Lemma 5.9's homogeneous statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.rerouting import scheduled_broadcasts
from repro.errors import ProtocolError
from repro.euler.labels import (
    JoinSpec,
    SplitSpec,
    join_m1_label,
    join_m2_label,
    reroot_label,
    split_label,
)
from repro.euler.tour import ETEdge
from repro.core.state import MachineState, MachineStateBase
from repro.graphs.graph import normalize
from repro.perf.config import fast_path_enabled
from repro.sim.message import WORDS_ET_EDGE, WORDS_ID
from repro.sim.network import Network
from repro.sim.partition import VertexPartition


# ----------------------------------------------------------------------
# script steps
# ----------------------------------------------------------------------
@dataclass
class CutStep:
    """One cut in application-time coordinates."""

    edge: Tuple[int, int]
    snapshot: ETEdge  # the cut edge's labels at the moment it is applied
    spec: SplitSpec


@dataclass
class LinkStep:
    """One link in application-time coordinates."""

    edge: Tuple[int, int]
    weight: float
    spec: JoinSpec


class _CutParam:
    """Mutable working copy of one cut's broadcast parameters."""

    def __init__(self, u: int, v: int, snapshot: ETEdge, size: int) -> None:
        self.u, self.v = u, v
        self.ete = snapshot
        self.size = size

    def cascade(self, spec: SplitSpec) -> None:
        if self.ete.tour != spec.old_tour:
            return
        t1, l1 = split_label(self.ete.t_uv, spec)
        t2, l2 = split_label(self.ete.t_vu, spec)
        if t1 != t2:
            raise ProtocolError("cut edge straddles a split; labels corrupt")
        self.ete.t_uv, self.ete.t_vu, self.ete.tour = l1, l2, t1
        self.size = spec.inside_size if t1 == spec.inside_tour else spec.root_side_size


class _LinkParam:
    """Mutable working copy of one link's broadcast parameters.

    Side 1 belongs to the smaller endpoint u, side 2 to v (u < v); M1
    absorbs M2 per Lemma 5.7.
    """

    def __init__(
        self,
        u: int,
        v: int,
        weight: float,
        a: int,
        tour1: int,
        size1: int,
        b: int,
        tour2: int,
        size2: int,
    ) -> None:
        self.u, self.v, self.weight = u, v, weight
        self.a, self.tour1, self.size1 = a, tour1, size1
        self.b, self.tour2, self.size2 = b, tour2, size2

    def _cascade_side(self, label: int, tour: int, size: int, spec: JoinSpec
                      ) -> Tuple[int, int, int]:
        if tour == spec.tour1:
            if spec.size1 == 0:
                # A singleton M1: its sole vertex's outgoing value in the
                # merged tour is 0 (the new edge departs it at time 0).
                return 0, spec.tour1, spec.new_size
            return join_m1_label(label, spec), spec.tour1, spec.new_size
        if tour == spec.tour2:
            if spec.size2 == 0:
                # A singleton M2: its vertex departs at a + 1.
                return spec.a + 1, spec.tour1, spec.new_size
            return join_m2_label(label, spec), spec.tour1, spec.new_size
        return label, tour, size

    def cascade(self, spec: JoinSpec) -> None:
        self.a, self.tour1, self.size1 = self._cascade_side(
            self.a, self.tour1, self.size1, spec
        )
        self.b, self.tour2, self.size2 = self._cascade_side(
            self.b, self.tour2, self.size2, spec
        )
        if self.tour1 == self.tour2:
            raise ProtocolError(
                f"links are not a forest: ({self.u},{self.v}) now closes a cycle"
            )


# ----------------------------------------------------------------------
# script construction (pure; identical on every machine)
# ----------------------------------------------------------------------
def build_cut_script(
    params: Sequence[_CutParam], next_tour_id: int
) -> Tuple[List[CutStep], int]:
    steps: List[CutStep] = []
    work = list(params)
    for i, p in enumerate(work):
        spec = SplitSpec(
            e_min=p.ete.e_min,
            e_max=p.ete.e_max,
            size=p.size,
            old_tour=p.ete.tour,
            inside_tour=next_tour_id,
        )
        next_tour_id += 1
        steps.append(CutStep(edge=(p.u, p.v), snapshot=p.ete, spec=spec))
        for q in work[i + 1 :]:
            q.cascade(spec)
    return steps, next_tour_id


def build_link_script(params: Sequence[_LinkParam]) -> List[LinkStep]:
    steps: List[LinkStep] = []
    work = list(params)
    for i, p in enumerate(work):
        if p.tour1 == p.tour2:
            raise ProtocolError(f"link ({p.u},{p.v}) would close a cycle")
        spec = JoinSpec(
            a=p.a, b=p.b, size1=p.size1, size2=p.size2, tour1=p.tour1, tour2=p.tour2
        )
        steps.append(LinkStep(edge=(p.u, p.v), weight=p.weight, spec=spec))
        for q in work[i + 1 :]:
            q.cascade(spec)
    return steps


# ----------------------------------------------------------------------
# per-machine application (pure local computation)
# ----------------------------------------------------------------------
def _transform_cut(ete: ETEdge, spec: SplitSpec) -> None:
    if ete.tour != spec.old_tour:
        return
    t1, l1 = split_label(ete.t_uv, spec)
    t2, l2 = split_label(ete.t_vu, spec)
    if t1 != t2:
        raise ProtocolError("edge straddles a split; labels corrupt")
    ete.t_uv, ete.t_vu, ete.tour = l1, l2, t1


def _transform_link(ete: ETEdge, spec: JoinSpec) -> None:
    if ete.tour == spec.tour1:
        ete.t_uv = join_m1_label(ete.t_uv, spec)
        ete.t_vu = join_m1_label(ete.t_vu, spec)
    elif ete.tour == spec.tour2:
        ete.t_uv = join_m2_label(ete.t_uv, spec)
        ete.t_vu = join_m2_label(ete.t_vu, spec)
        ete.tour = spec.tour1


def apply_cut_step(state: MachineState, step: CutStep) -> None:
    spec = step.spec
    cut_key = normalize(*step.edge)

    # 1. Decide sides for tracked vertices of the split tour *before*
    #    relabelling anything (everything is still in old coordinates).
    new_tours: Dict[int, Optional[int]] = {}
    for x in state.tracked:
        if state.tour_of.get(x) != spec.old_tour:
            continue
        w = state.witness.get(x)
        if w is not None and normalize(w.u, w.v) == cut_key:
            inside = step.snapshot.head_at(spec.e_min) == x
        elif w is not None:
            inside = spec.e_min < w.e_min and w.e_max < spec.e_max
        elif x in state.vertices:
            w2 = state.pick_witness(x)
            if w2 is None:
                raise ProtocolError(
                    f"machine {state.mid}: owned vertex {x} in tour "
                    f"{spec.old_tour} has no incident MST edge"
                )
            if normalize(w2.u, w2.v) == cut_key:
                inside = step.snapshot.head_at(spec.e_min) == x
            else:
                inside = spec.e_min < w2.e_min and w2.e_max < spec.e_max
        else:
            new_tours[x] = None  # unknown until the repair broadcast
            continue
        new_tours[x] = spec.inside_tour if inside else spec.old_tour

    # 2. Remove the cut edge; invalidate witnesses that pointed at it.
    state.pop_mst_edge(*cut_key)
    for x, w in state.witness.items():
        if w is not None and normalize(w.u, w.v) == cut_key:
            state.witness[x] = None

    # 3. Relabel surviving MST edges and witnesses of the split tour
    #    (tour-indexed: only the split tour's edges are touched).
    for key in state.mst_keys_in_tour(spec.old_tour):
        ete = state.mst[key]
        _transform_cut(ete, spec)
        state.retour_mst_edge(key, spec.old_tour, ete.tour)
    for w in state.witness.values():
        if w is not None:
            _transform_cut(w, spec)

    # 4. Tour bookkeeping.
    state.tour_size[spec.old_tour] = spec.root_side_size
    state.tour_size[spec.inside_tour] = spec.inside_size
    for x, tid in new_tours.items():
        state.tour_of[x] = tid

    # 5. Owned endpoints whose witness died can re-pick locally for free.
    for x in cut_key:
        if (
            x in state.vertices
            and state.witness.get(x) is None
            and state.tour_of.get(x) is not None
        ):
            state.witness[x] = state.pick_witness(x)
    state.refresh_gauges()


def apply_link_step(state: MachineState, step: LinkStep) -> None:
    spec = step.spec
    u, v = step.edge
    lab_in, lab_out = spec.new_edge_labels

    # 1. Relabel existing MST edges and witnesses (tour-indexed).
    for tid in (spec.tour1, spec.tour2):
        for key in state.mst_keys_in_tour(tid):
            ete = state.mst[key]
            _transform_link(ete, spec)
            state.retour_mst_edge(key, tid, ete.tour)
    for w in state.witness.values():
        if w is not None:
            _transform_link(w, spec)

    # 2. Materialize the new edge if this machine hosts an endpoint.
    new_ete = ETEdge(u, v, step.weight, lab_in, lab_out, spec.tour1)
    if u in state.vertices or v in state.vertices:
        state.add_mst_edge(ETEdge(u, v, step.weight, lab_in, lab_out, spec.tour1))

    # 3. Tour bookkeeping: M2 dissolves into M1.
    for x in state.tracked:
        if state.tour_of.get(x) == spec.tour2:
            state.tour_of[x] = spec.tour1
    state.tour_size[spec.tour1] = spec.new_size
    state.tour_size.pop(spec.tour2, None)

    # 4. Endpoint witnesses: a previously-isolated endpoint now has an edge.
    for x in (u, v):
        if x in state.tracked and state.witness.get(x) is None:
            state.witness[x] = ETEdge(
                new_ete.u, new_ete.v, new_ete.weight, new_ete.t_uv, new_ete.t_vu, new_ete.tour
            )
    state.refresh_gauges()


# ----------------------------------------------------------------------
# the full protocol
# ----------------------------------------------------------------------
def _collect_cut_params(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    cuts: Sequence[Tuple[int, int]],
) -> List[_CutParam]:
    ordered = sorted(normalize(u, v) for (u, v) in cuts)
    reqs = []
    for (u, v) in ordered:
        src = vp.home(u)
        st = states[src]
        ete = st.mst_edge((u, v))
        if ete is None:
            raise ProtocolError(f"cut ({u},{v}) is not an MST edge on machine {src}")
        size = st.tour_size[ete.tour]
        reqs.append((src, ("cutp", u, v, ete.snapshot(), size), WORDS_ET_EDGE + 1))
    got = scheduled_broadcasts(net, reqs)
    params = []
    for _src, (_tag, u, v, snap, size) in got:
        params.append(_CutParam(u, v, ETEdge.from_snapshot(list(snap)), size))
    return params


def _collect_link_params(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    links: Sequence[Tuple[int, int, float]],
) -> List[_LinkParam]:
    ordered = sorted((normalize(u, v) + (w,)) for (u, v, w) in links)
    reqs = []
    for (u, v, w) in ordered:
        for x in (u, v):
            src = vp.home(x)
            st = states[src]
            tid = st.tour_id(x)
            if tid is None:
                raise ProtocolError(f"machine {src}: unknown tour for owned vertex {x}")
            size = st.tour_size.get(tid)
            if size is None:
                raise ProtocolError(f"machine {src}: unknown size for tour {tid}")
            out = st.outgoing_value(x)
            reqs.append(
                (src, ("linkp", u, v, w, x, out if out is not None else 0, tid, size),
                 WORDS_ID * 5)
            )
    got = scheduled_broadcasts(net, reqs)
    halves: Dict[Tuple[int, int, float], Dict[int, Tuple[int, int, int]]] = {}
    for _src, (_tag, u, v, w, x, out, tid, size) in got:
        halves.setdefault((u, v, w), {})[x] = (out, tid, size)
    params = []
    for (u, v, w) in ordered:
        h = halves[(u, v, w)]
        a, t1, s1 = h[u]
        b, t2, s2 = h[v]
        params.append(_LinkParam(u, v, w, a, t1, s1, b, t2, s2))
    return params


def _repair_witnesses(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineStateBase],
    vertices: Sequence[int],
) -> None:
    """Endpoints of cut edges re-broadcast fresh witnesses (Lemma 5.9 tail)."""
    reqs = []
    for x in sorted(set(vertices)):
        src = vp.home(x)
        st = states[src]
        snap = st.witness_snapshot(x)
        if snap is None:
            w = st.pick_witness(x)
            snap = w.snapshot() if w is not None else None
            st.set_witness(x, snap)
        tid = st.tour_id(x)
        reqs.append((src, ("repair", x, snap, tid), WORDS_ET_EDGE + 1))
    got = scheduled_broadcasts(net, reqs)
    for _src, (_tag, x, snap, tid) in got:
        for st in states:
            if x in st.tracked:
                st.set_witness(x, tuple(snap) if snap is not None else None)
                st.set_tour_id(x, tid)


def run_structural_batch(
    net: Network,
    vp: VertexPartition,
    states: Sequence[MachineState],
    cuts: Sequence[Tuple[int, int]],
    links: Sequence[Tuple[int, int, float]],
    next_tour_id: int,
) -> int:
    """Apply cycle-free cuts then links across all machines (Lemma 5.9).

    Returns the advanced replicated tour-id counter.  Cost: O(|cuts| +
    |links|) broadcasts in O(1) dependency sets → O((|cuts|+|links|)/k + 1)
    rounds, measured on ``net.ledger``.

    On a fast-path network the states are columnar and the columnar
    engine (:func:`repro.perf.columnar.run_structural_batch_columnar`)
    applies every non-empty batch; the per-edge loops below are the
    reference engine.  Both send the same wire, so both charge the same
    ledger.  An empty batch reaches neither engine.
    """
    if not cuts and not links:
        return next_tour_id
    if fast_path_enabled(net):
        from repro.perf.columnar import run_structural_batch_columnar

        return run_structural_batch_columnar(
            net, vp, states, cuts, links, next_tour_id
        )
    recorder = net.ledger.recorder
    if recorder is not None:
        recorder.on_engine("structural_batch", "scalar")
    if cuts:
        params = _collect_cut_params(net, vp, states, cuts)
        script, next_tour_id = build_cut_script(params, next_tour_id)
        for st in states:
            for step in script:
                apply_cut_step(st, step)
        endpoints = [x for (u, v) in cuts for x in (u, v)]
        _repair_witnesses(net, vp, states, endpoints)
    if links:
        params = _collect_link_params(net, vp, states, links)
        script = build_link_script(params)
        for st in states:
            for step in script:
                apply_link_step(st, step)
    return next_tour_id


def reroot_machines(
    states: Sequence[MachineState], tid: int, d: int, size: int
) -> None:
    """Lemma 5.5's local shift of every label of tour ``tid`` (reference)."""
    for st in states:
        for key in st.mst_keys_in_tour(tid):
            ete = st.mst[key]
            ete.t_uv = reroot_label(ete.t_uv, d, size)
            ete.t_vu = reroot_label(ete.t_vu, d, size)
        for w in st.witness.values():
            if w is not None and w.tour == tid:
                w.t_uv = reroot_label(w.t_uv, d, size)
                w.t_vu = reroot_label(w.t_vu, d, size)
