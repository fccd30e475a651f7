"""Named stream shapes for the CLI and the tests.

Each shape is a seeded builder producing an
:class:`~repro.graphs.streams.ArrivalStream`; the ``repro stream``
subcommand and the tests (including the replay of the committed
frontier sweep) all draw from this registry so "sliding-window at
seed 0" means the same workload everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.graphs.generators import random_weighted_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.streams import (
    ArrivalStream,
    adversarial_arrival_stream,
    flash_crowd_arrival_stream,
    sliding_window_arrival_stream,
    uniform_arrival_stream,
)


def _uniform(seed: int, ticks: int, rate: int) -> ArrivalStream:
    initial = random_weighted_graph(48, 96, rng=seed)
    return uniform_arrival_stream(initial, float(rate), ticks, rng=seed + 1)


def _sliding_window(seed: int, ticks: int, rate: int) -> ArrivalStream:
    return sliding_window_arrival_stream(48, 4, rate, ticks, rng=seed + 1)


def _flash_crowd(seed: int, ticks: int, rate: int) -> ArrivalStream:
    initial = random_weighted_graph(40, 80, rng=seed)
    return flash_crowd_arrival_stream(
        initial,
        base_rate=max(rate / 4.0, 1.0),
        n_ticks=ticks,
        burst_every=8,
        burst_size=6 * rate,
        hotspot=8,
        rng=seed + 1,
    )


def _adversarial(seed: int, ticks: int, rate: int) -> ArrivalStream:
    # The Theorem 7.1 clique instance must land on pairs absent from the
    # initial graph, so the waves run over an initially empty graph.
    initial = WeightedGraph(range(24))
    return adversarial_arrival_stream(
        initial, range(16), float(rate), waves=max(ticks // 8, 2), rng=seed + 1
    )


SHAPES: Dict[str, Callable[[int, int, int], ArrivalStream]] = {
    "uniform": _uniform,
    "sliding-window": _sliding_window,
    "flash-crowd": _flash_crowd,
    "adversarial": _adversarial,
}


def shape_names() -> List[str]:
    return sorted(SHAPES)


def make_shape(name: str, seed: int = 0, ticks: int = 24, rate: int = 8) -> ArrivalStream:
    """Build a named arrival stream (same name+args ⇒ same stream)."""
    try:
        builder = SHAPES[name]
    except KeyError:
        raise ValueError(
            f"unknown stream shape {name!r}; known: {shape_names()}"
        ) from None
    return builder(seed, ticks, rate)
