"""Pinned cut trajectories of the live reducer.

The determinism gate compares the live reducer against an offline
replay, so a change to the cut rule that moves both sides together
passes it.  These tests pin the absolute outcome instead: two fixed
write streams driven through a :class:`ServeReducer` must end on the
same ledger and forest digests, cut counts, cut reasons and staleness
percentiles as recorded here.

* ``hot-toggle`` toggles a few absent pairs; the coalescer annihilates
  most of the churn, the queue never fills, and cuts are deadline cuts.
* ``uniform-churn`` adds and deletes uniformly over the whole graph;
  every admission costs one slot and cuts are size cuts.
"""

from typing import List

import numpy as np
import pytest

from repro.graphs.streams import Update
from repro.serve import ServeConfig, ServeReducer

CONFIG = dict(k=8, n=1000, m=3000, seed=0)
WRITES = 240


def hot_toggle(reducer: ServeReducer, hot: int = 6) -> List[Update]:
    """Toggle ``hot`` pairs absent from the initial graph."""
    rng = np.random.default_rng(1)
    n = reducer.config.n
    pairs: List[tuple] = []
    while len(pairs) < hot:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in pairs and not reducer.effective_present(u, v):
            pairs.append((u, v))
    present = set()
    out = []
    for pick in rng.integers(0, hot, size=WRITES).tolist():
        pair = pairs[pick]
        if pair in present:
            present.discard(pair)
            out.append(Update.delete(*pair))
        else:
            present.add(pair)
            out.append(Update.add(*pair, float(rng.random())))
    return out


def uniform_churn(reducer: ServeReducer) -> List[Update]:
    """Half adds of fresh pairs, half deletes of present edges."""
    rng = np.random.default_rng(2)
    n = reducer.config.n
    present = sorted(
        (min(e.u, e.v), max(e.u, e.v)) for e in reducer.dm.shadow.edges()
    )
    live = set(present)
    out = []
    for _ in range(WRITES):
        if rng.random() < 0.5:
            while True:
                u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
                if u != v and (u, v) not in live:
                    break
            live.add((u, v))
            present.append((u, v))
            out.append(Update.add(u, v, float(rng.random())))
        else:
            i = int(rng.integers(len(present)))
            pair = present[i]
            present[i] = present[-1]
            present.pop()
            live.discard(pair)
            out.append(Update.delete(*pair))
    return out


def trajectory(stream) -> dict:
    reducer = ServeReducer(ServeConfig(**CONFIG))
    for update in stream(reducer):
        reducer.submit(update)
    reducer.drain()
    stats = reducer.stats()
    return {
        "ledger_digest": reducer.ledger_digest(),
        "forest_digest": reducer.forest_digest(),
        "cuts": reducer.ingestor.cuts,
        "batches": reducer.ingestor.batches,
        "cut_reasons": dict(reducer.ingestor.cut_reasons),
        "p50_ticks": stats["p50_ticks"],
        "p99_ticks": stats["p99_ticks"],
    }


PINNED = {
    "hot-toggle": {
        "ledger_digest": "82a878109b6e471f4a4b707bb7ed57aed4f0cc4df98c7e169b01474b006ef80d",
        "forest_digest": "7c2467556ef736b0aab84cc672162d6a4dbdcf166ba4be1b9528bdd62779e1ee",
        "cuts": 25,
        "batches": 42,
        "cut_reasons": {"deadline": 24, "flush": 1},
        "p50_ticks": 6.0,
        "p99_ticks": 312.0,
    },
    "uniform-churn": {
        "ledger_digest": "56d626780b905bfd633fbb5e8c7fac9c4e296fcecd48598f1c76122160ca7302",
        "forest_digest": "67bbe7ede1787189c973588f6a847c9db9d72ed42b8d9eb120991531cfe432bb",
        "cuts": 30,
        "batches": 30,
        "cut_reasons": {"size": 30},
        "p50_ticks": 238.0,
        "p99_ticks": 309.0,
    },
}


@pytest.mark.parametrize(
    "name, stream", [("hot-toggle", hot_toggle), ("uniform-churn", uniform_churn)]
)
def test_trajectory_is_pinned(name, stream):
    assert trajectory(stream) == PINNED[name]
