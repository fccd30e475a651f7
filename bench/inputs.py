"""Seeded inputs of the three workloads.

Every input is a pure function of its seeds, so two runs with one seed
send byte-identical traffic.  The generators keep their own copy of the
graph: that makes each mutation valid when the daemon admits it, and it
gives the correctness check the final graph to run Kruskal on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs.generators import random_weighted_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.streams import UpdateStream, churn_stream

Pair = Tuple[int, int]

READ_KINDS = ("in-forest", "component", "weight", "components")


def _rng(seed: int, purpose: int) -> np.random.Generator:
    """An independent stream per purpose, all fixed by the one seed."""
    return np.random.default_rng([seed, purpose])


def frame(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


class EdgeBook:
    """The generator's own graph, with O(1) sampling of present edges."""

    def __init__(self, graph: WeightedGraph) -> None:
        self.n = graph.n
        self.graph = graph.copy()
        self.pairs: List[Pair] = sorted((e.u, e.v) for e in graph.edges())
        self.index: Dict[Pair, int] = {p: i for i, p in enumerate(self.pairs)}

    def has(self, pair: Pair) -> bool:
        return pair in self.index

    def add(self, pair: Pair, w: float) -> None:
        self.graph.add_edge(pair[0], pair[1], w)
        self.index[pair] = len(self.pairs)
        self.pairs.append(pair)

    def remove(self, pair: Pair) -> None:
        self.graph.remove_edge(*pair)
        i = self.index.pop(pair)
        last = self.pairs.pop()
        if i < len(self.pairs):
            self.pairs[i] = last
            self.index[last] = i

    def random_present(self, rng: np.random.Generator) -> Pair:
        return self.pairs[int(rng.integers(len(self.pairs)))]

    def random_absent(self, rng: np.random.Generator) -> Pair:
        while True:
            u, v = (int(x) for x in rng.integers(0, self.n, size=2))
            pair = (min(u, v), max(u, v))
            if u != v and pair not in self.index:
                return pair


# ----------------------------------------------------------------------
# core-batch64
# ----------------------------------------------------------------------

def core_input(
    graph_seed: int, seed: int, n: int, m: int, batch: int, batches: int, p_add: float
) -> Tuple[WeightedGraph, UpdateStream]:
    """The initial graph and a churn stream of ``batches`` × ``batch``."""
    graph = random_weighted_graph(n, m, rng=_rng(graph_seed, 0))
    stream = churn_stream(graph, batch, batches, p_add=p_add, rng=_rng(seed, 1))
    return graph, stream


# ----------------------------------------------------------------------
# serve-write: closed-loop mutations
# ----------------------------------------------------------------------

def serve_graph(seed: int, n: int, m: int) -> WeightedGraph:
    """The daemon's initial graph: the ``ServeConfig(n, m, seed)`` recipe."""
    return random_weighted_graph(n, m, rng=seed)


def write_commands(
    graph: WeightedGraph, count: int, p_add: float, seed: int
) -> Tuple[List[bytes], WeightedGraph]:
    """``count`` uniform add/delete frames, each valid after the ones
    before it; deletes draw from every present edge, forest edges too.
    Returns the frames and the graph once all of them are applied."""
    rng = _rng(seed, 2)
    book = EdgeBook(graph)
    frames: List[bytes] = []
    for i in range(count):
        if rng.random() < p_add or not book.pairs:
            u, v = book.random_absent(rng)
            w = float(rng.random())
            book.add((u, v), w)
            frames.append(frame({"id": i, "op": "add", "u": u, "v": v, "w": w}))
        else:
            u, v = book.random_present(rng)
            book.remove((u, v))
            frames.append(frame({"id": i, "op": "delete", "u": u, "v": v}))
    return frames, book.graph


# ----------------------------------------------------------------------
# serve-mixed: open-loop writes and reads
# ----------------------------------------------------------------------

WRITE, READ = 0, 1


@dataclass
class Schedule:
    """Open-loop traffic: per connection, the frames and their due times
    (seconds from the start), plus the graph once every write lands."""

    times: List[List[float]]
    frames: List[List[bytes]]
    final: WeightedGraph

    def merged(self) -> List[Tuple[float, int, int]]:
        """Every request as ``(due, connection, id)`` in send order."""
        out = [
            (t, conn, i)
            for conn, times in enumerate(self.times)
            for i, t in enumerate(times)
        ]
        out.sort()
        return out


def _poisson_times(rng: np.random.Generator, rate: float, seconds: float) -> List[float]:
    expected = int(rate * seconds * 1.2) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while times[-1] < seconds:
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate, size=expected))
        times = np.concatenate([times, more])
    return times[times < seconds].tolist()


def mixed_schedule(
    graph: WeightedGraph,
    seconds: float,
    write_rate: float,
    read_rate: float,
    hot_pairs: int,
    zipf: float,
    seed: int,
) -> Schedule:
    """Poisson writes toggling ``hot_pairs`` non-initial pairs drawn
    Zipf(``zipf``) on connection 0; Poisson reads, uniform over the four
    query kinds, on connection 1.  ``in-forest`` reads never ask u == v."""
    rng = _rng(seed, 3)
    n = graph.n
    book = EdgeBook(graph)
    hot: List[Pair] = []
    while len(hot) < hot_pairs:
        pair = book.random_absent(rng)
        if pair not in hot:
            hot.append(pair)
    ranks = np.arange(1, hot_pairs + 1, dtype=float) ** -zipf
    write_times = _poisson_times(rng, write_rate, seconds)
    picks = rng.choice(hot_pairs, size=len(write_times), p=ranks / ranks.sum())
    weights = rng.random(len(write_times))
    writes: List[bytes] = []
    for i, (pick, w) in enumerate(zip(picks.tolist(), weights.tolist())):
        u, v = hot[pick]
        if book.has((u, v)):
            book.remove((u, v))
            writes.append(frame({"id": i, "op": "delete", "u": u, "v": v}))
        else:
            book.add((u, v), w)
            writes.append(frame({"id": i, "op": "add", "u": u, "v": v, "w": w}))

    read_times = _poisson_times(rng, read_rate, seconds)
    kinds = rng.integers(0, len(READ_KINDS), size=len(read_times)).tolist()
    us = rng.integers(0, n, size=len(read_times)).tolist()
    offsets = rng.integers(1, n, size=len(read_times)).tolist()
    reads: List[bytes] = []
    for i, (kind, u, off) in enumerate(zip(kinds, us, offsets)):
        q = READ_KINDS[kind]
        obj: dict = {"id": i, "op": "query", "q": q}
        if q == "in-forest":
            obj.update(u=u, v=(u + off) % n)
        elif q == "component":
            obj.update(v=u)
        reads.append(frame(obj))
    return Schedule([write_times, read_times], [writes, reads], book.graph)
