"""Workload parameters and the repetition plan of the benchmark.

``BENCHMARK.json`` at the repository root declares the metric names,
units, directions and bounds; this module holds everything else the
benchmark fixes: how big each workload is and how a run is cut into
repetitions.  ``bench/README.md`` maps each per-layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

DEFAULT_SEED = 0
#: The initial graph and its partition over the machines are the same in
#: every run; ``--seed`` picks the traffic.  With the graph seeded too,
#: rounds per update on serve-write moved by 11% between seeds and the
#: throughput with them, far past what the ten-seed spread check allows.
GRAPH_SEED = 0
#: Repetitions inside one untraced run.  Each replays the same inputs;
#: the run reports, per batch or request, the best of them.
REPS = 4
#: Untraced runs per workload in a full set (``run.py --out``).  With
#: three, the quartiles are the extremes, and one run caught in a slow
#: stretch of the host reads as an unresolved spread.
RUNS = 5
#: Daemon set-ups timed per serve repetition (see ``daemon.py``).
DAEMON_SETUPS = 5
#: Latency metrics compare with this absolute floor next to the relative
#: bound, because sub-millisecond medians move by scheduler noise alone.
LATENCY_FLOOR_MS = 0.25

WORKLOADS = {
    # Wide batches on the core alone: Lemma 5.9 script application and the
    # Theorem 5.8 init (in setup_s) dominate; no serve or stream layer runs.
    "core-batch64": {
        "n": 3000, "m": 9000, "k": 16, "init": "distributed",
        "batch": 64, "p_add": 0.5,
        # batches per repetition = batches_per_s * seconds / REPS
        "batches_per_s": 3.0,
    },
    # Saturation of the daemon over TCP: one connection, closed loop with
    # a pipelining window, uniform add/delete over any present edge.
    "serve-write": {
        "n": 1000, "m": 3000, "k": 8, "window": 64, "p_add": 0.5,
        # mutations per repetition = mutations_per_s * seconds / REPS
        "mutations_per_s": 160.0,
    },
    # Open loop, Poisson arrivals on two connections: hot-pair toggles that
    # the coalescer annihilates, plus zero-round reads of the forest view.
    # At 100 writes/s the daemon spends about half its time in cuts, so the
    # median read sits on the knee and swings 2-18 ms between repetitions;
    # at 40/s cuts take about a fifth of the time and reads mostly measure
    # the serve layer, while the p99 still shows how long a cut holds the
    # event loop.
    "serve-mixed": {
        "n": 1000, "m": 3000, "k": 8,
        "write_rate": 40.0, "read_rate": 1000.0,
        "hot_pairs": 64, "zipf": 1.2,
        # open-loop window per repetition = window_share * seconds / REPS
        "window_share": 0.75,
        # a repetition is invalid if responses are still missing this long
        # after the last scheduled send (the backlog is growing)
        "drain_s": 2.0,
    },
}

#: A repetition whose generator ran later than this at p99 is invalid.
MAX_LATENESS_P99_MS = 5.0

#: Metrics whose value is a pure function of (seed, seconds): two result
#: files made with the same settings must agree on them exactly.
EXACT = (
    "sim.rounds_per_update", "sim.rounds", "sim.messages", "sim.words",
    "stream.cuts", "stream.batches", "stream.shipped_ratio",
    "stream.staleness_p50_ticks", "stream.staleness_p99_ticks",
    "serve.peak_queue_depth",
)

def declaration() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def scrubbed_env() -> dict:
    """The environment for child processes: no ``REPRO_*`` variable, so
    every path runs the shipped default, and ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_repro() -> list:
    """Make ``src`` importable in this process with ``REPRO_*`` removed;
    return the names removed.

    Exits with a non-zero status when the package is not there, so a
    checkout that holds only the benchmark fails before printing a result.
    """
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"bench: cannot import the repro package from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: repro was imported from {repro.__file__}, not from {SRC}")
    return removed


def resolved_backend() -> str:
    """The execution backend the core resolves to with nothing pinned."""
    try:
        from repro.sim.executor import backend_from_env
    except ImportError:
        return "missing"
    return backend_from_env().name
