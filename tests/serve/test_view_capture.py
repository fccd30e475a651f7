"""The published view answers what a union-find over the forest answers.

:meth:`ForestView.capture` reads the forest edges and the component
labels the core already holds (a vertex's tour id names its tree).  This
drives both pinned cut trajectories through a :class:`ServeReducer` on
both engines and, after every cut, compares the published view and its
``msf_change`` against an oracle view rebuilt from ``dm.msf_edges()``
with a union-find.
"""

from typing import Dict, List, Tuple

import pytest

from test_cut_trajectory import CONFIG, hot_toggle, uniform_churn

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


def _diff(old: Dict, new: Dict) -> Tuple[List, List]:
    added = sorted(
        (u, v, w) for (u, v), w in new.items() if old.get((u, v)) != w
    )
    removed = sorted(p for p, w in old.items() if new.get(p) != w)
    return added, removed


@pytest.mark.parametrize("backend", ["inproc-columnar", "reference"])
@pytest.mark.parametrize("stream", [hot_toggle, uniform_churn])
def test_every_published_view_matches_a_union_find_rebuild(stream, backend):
    reducer = ServeReducer(ServeConfig(**CONFIG, backend=backend))
    prev = [_union_find_view(reducer.dm)]
    publish = reducer._publish
    checked = []

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
        prev[0] = (edges, component)
        checked.append(change.version)
        return change

    reducer._publish = checked_publish
    for update in stream(reducer):
        reducer.submit(update)
    reducer.drain()
    assert checked and checked == list(range(1, len(checked) + 1))
