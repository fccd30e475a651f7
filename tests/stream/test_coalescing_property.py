"""Hypothesis property suite: coalescing is semantics-preserving.

For arbitrary per-emission-consistent arrival streams and every cluster
size k ∈ {4, 8, 16}, the coalesced and uncoalesced runs must land on the
same final MSF (weight and forest digest) while the coalesced run never
ships more updates.  A cheaper buffer-level property checks the same
replay equivalence without spinning up a cluster."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DynamicMST
from repro.graphs import Update, WeightedGraph, kruskal_msf
from repro.graphs.graph import normalize
from repro.graphs.mst import forest_digest
from repro.graphs.streams import ArrivalStream, TimedUpdate, apply_updates
from repro.stream import CoalescingBuffer


@st.composite
def arrival_script(draw):
    """A per-emission-consistent arrival stream over <= 12 vertices.

    Deliberately churn-heavy: pairs are drawn from a small pool so the
    same edge is frequently added, deleted, and re-added — the regime
    where coalescing actually has decisions to make."""
    n = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    n_arrivals = draw(st.integers(0, 40))
    rng = np.random.default_rng(seed)
    g = WeightedGraph(range(n))
    present = set()
    for _ in range(draw(st.integers(0, 6))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(rng.random()))
            present.add(normalize(u, v))
    arrivals = []
    tick = 0
    for _ in range(n_arrivals):
        tick += int(rng.integers(0, 3))
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        pair = normalize(u, v)
        if pair in present:
            upd = Update.delete(*pair)
            present.discard(pair)
        else:
            upd = Update.add(*pair, float(rng.random()))
            present.add(pair)
        arrivals.append(TimedUpdate(tick, upd))
    return seed, ArrivalStream(g, arrivals, name="hypothesis")


@pytest.mark.parametrize("k", [4, 8, 16])
@given(arrival_script())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_coalescing_preserves_final_msf(k, script):
    seed, arrivals = script
    runs = {}
    for coalesce in (False, True):
        dm = DynamicMST.build(
            arrivals.initial.copy(), k, rng=seed, init="free"
        )
        runs[coalesce] = dm.ingest(arrivals, coalesce=coalesce)
        dm.check()
    raw, merged = runs[False], runs[True]
    assert merged.msf_weight == pytest.approx(raw.msf_weight)
    assert merged.forest_digest == raw.forest_digest
    assert merged.shipped <= raw.shipped
    oracle = kruskal_msf(arrivals.final_graph())
    assert merged.forest_digest == forest_digest(oracle)


@given(arrival_script())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_buffer_flush_equals_direct_replay(script):
    """Buffer-level core of the same property, no cluster: flushing the
    coalescer yields the same graph as replaying every arrival."""
    _, arrivals = script
    direct = arrivals.final_graph()
    buf = CoalescingBuffer()
    for tu in arrivals:
        buf.admit(tu.update, tu.tick, tu.tick)
    replayed = arrivals.initial.copy()
    shipped = 0
    while buf.pending_cost:
        cut = buf.cut(8)
        for batch in cut.batches:
            apply_updates(replayed, batch)
            shipped += len(batch)
    assert {e.key() for e in replayed.edges()} == {
        e.key() for e in direct.edges()
    }
    assert shipped + buf.absorbed == buf.admitted
