"""The published view answers what a union-find over the forest answers.

:meth:`ForestView.capture` reads the forest edges and the component
labels the core already holds (a vertex's tour id names its tree), and
:meth:`ForestView.diff` merges two views' sorted edge arrays.  This drives both
pinned cut trajectories, plus a stream that cuts a bridge with no
replacement and re-weights a forest edge, through a :class:`ServeReducer`
on both engines and, after every cut, compares the published view and
its ``msf_change`` against an oracle view rebuilt from
``dm.msf_edges()`` with a union-find.
"""

from typing import Dict, List, Tuple

import pytest

from test_cut_trajectory import CONFIG, hot_toggle, uniform_churn

from repro.graphs.streams import Update
from repro.serve import ServeConfig, ServeReducer
from repro.serve.view import ForestView


def _union_find_view(dm) -> Tuple[Dict[Tuple[int, int], float], Dict[int, int]]:
    edges = {(e.u, e.v): e.weight for e in dm.msf_edges()}
    parent = {v: v for v in dm.shadow.vertices()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            # Union by label so every root is its component's minimum.
            parent[max(ru, rv)] = min(ru, rv)
    return edges, {v: find(v) for v in parent}


def bridge_and_reweight(reducer: ServeReducer) -> List[Update]:
    """Isolate vertex 0 — its last edge is a bridge with no replacement,
    and 0 labels the giant tree, so every label in it moves — then
    re-weight a forest edge in place (a delete and an add of the same
    pair in one cut)."""
    dm = reducer.dm
    out = [Update.delete(e.u, e.v) for e in sorted(dm.shadow.incident_edges(0))]
    u, v, w = min((e.u, e.v, e.weight) for e in dm.msf_edges() if 0 not in (e.u, e.v))
    return out + [Update.delete(u, v), Update.add(u, v, w / 2)]


def _diff(old: Dict, new: Dict) -> Tuple[List, List]:
    added = sorted(
        (u, v, w) for (u, v), w in new.items() if old.get((u, v)) != w
    )
    removed = sorted(p for p, w in old.items() if new.get(p) != w)
    return added, removed


@pytest.mark.parametrize("backend", ["inproc-columnar", "reference"])
@pytest.mark.parametrize("stream", [hot_toggle, uniform_churn, bridge_and_reweight])
def test_every_published_view_matches_a_union_find_rebuild(stream, backend):
    reducer = ServeReducer(ServeConfig(**CONFIG, backend=backend))
    prev = [_union_find_view(reducer.dm)]
    publish = reducer._publish
    checked = []
    relabelled = []
    reweighted = []

    def checked_publish(*args):
        change = publish(*args)
        view: ForestView = reducer.view
        edges, component = _union_find_view(reducer.dm)
        assert set(view.edges) == set(edges)
        assert all(abs(view.edges[p] - w) <= 1e-9 for p, w in edges.items())
        assert abs(view.weight - sum(edges.values())) <= 1e-9
        assert dict(view.component) == component
        assert view.n_components == len(set(component.values()))
        added, removed = _diff(prev[0][0], edges)
        assert [(u, v) for (u, v, _w) in change.added] == [(u, v) for (u, v, _w) in added]
        assert all(abs(a[2] - b[2]) <= 1e-9 for a, b in zip(change.added, added))
        assert list(change.removed) == removed
        relabelled.append(component != prev[0][1])
        reweighted.extend(set(change.removed) & {(u, v) for (u, v, _w) in change.added})
        prev[0] = (edges, component)
        checked.append(change.version)
        return change

    reducer._publish = checked_publish
    for update in stream(reducer):
        reducer.submit(update)
    reducer.drain()
    assert checked and checked == list(range(1, len(checked) + 1))
    if stream is bridge_and_reweight:
        assert any(relabelled) and reweighted
        assert reducer.view.component[0] == 0
        assert reducer.view.component[1] != 0


@pytest.mark.parametrize("backend", ["inproc-columnar", "reference"])
def test_diff_across_vertex_churn(backend):
    """Added and removed vertices change the vertex set, and ids 2**40
    apart test the key code's width: the forest stays sorted by key, and
    the diff merged over both vertex sets is the dict diff."""
    reducer = ServeReducer(ServeConfig(k=4, n=24, m=36, seed=3, backend=backend))
    dm, views = reducer.dm, [reducer.view]
    far = 2**40

    def step():
        f = dm.forest()
        keys = list(zip(f.u.tolist(), f.v.tolist()))
        assert keys == sorted(keys) and f.vertex.tolist() == sorted(dm.shadow.vertices())
        old = views[-1]
        new = ForestView.capture(dm, version=old.version + 1, tick=0)
        assert old.diff(new) == _diff(old.edges, new.edges)
        views.append(new)

    dm.add_vertex(far)
    dm.add_vertex(far + 1)
    dm.apply_batch([Update.add(0, far, 0.5), Update.add(far, far + 1, 0.25)])
    step()
    assert views[-1].component[far + 1] == views[-1].component[0]
    # (0, far) leaves and (0, far + 1) arrives at the same weight: far's
    # rank must not be read off the new vertex set, where it is gone.
    dm.remove_vertex(far)
    dm.apply_batch([Update.add(0, far + 1, 0.5)])
    step()
    assert far not in views[-1].component
    assert views[-2].diff(views[-1]) == ([(0, far + 1, 0.5)], [(0, far), (far, far + 1)])


@pytest.mark.parametrize("backend", ["inproc-columnar", "reference"])
def test_capture_to_and_from_an_empty_forest(backend):
    reducer = ServeReducer(ServeConfig(k=4, n=24, m=36, seed=3, backend=backend))
    dm, full = reducer.dm, reducer.view
    dm.apply_batch([Update.delete(e.u, e.v) for e in sorted(dm.shadow.edges())])
    empty = ForestView.capture(dm, version=1, tick=1)
    assert empty.edges == {} and empty.n_components == 24
    assert full.diff(empty) == _diff(full.edges, {})
    dm.apply_batch([Update.add(3, 5, 0.5)])
    one = ForestView.capture(dm, version=2, tick=2)
    assert one.edges == {(3, 5): 0.5} and one.component[5] == 3
    assert empty.diff(one) == ([(3, 5, 0.5)], [])
