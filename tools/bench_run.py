#!/usr/bin/env python
"""Benchmark-trajectory harness: the reference engine against columnar.

Runs every scenario once under the scalar ``reference`` engine and once
under ``inproc-columnar``, asserts both ledgers are byte-identical (same
:meth:`repro.sim.metrics.Ledger.digest`), and emits a machine-readable
``BENCH_<date>.json`` trajectory file: updates/second per engine,
speedups, ledger digests, kernel microbenchmarks, and the ``__slots__``
allocation win on the hot ``Message``/``ETEdge`` records.

    PYTHONPATH=src python tools/bench_run.py              # full run
    PYTHONPATH=src python tools/bench_run.py --smoke      # CI-sized
    PYTHONPATH=src python tools/bench_run.py --strict     # REPRO_STRICT=1
    PYTHONPATH=src python tools/bench_run.py --profile    # phase counters
    PYTHONPATH=src python tools/bench_run.py --trace-dir traces/  # JSONL traces

The digest assertion is the harness's reason to exist: a speedup from a
path that charges a different ledger is a model violation, not an
optimisation, and the run fails loudly.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import re
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

# One scenario registry serves the bench harness and `repro trace`: a
# trace captured from a benchmark scenario is the same workload.
from repro.trace.scenarios import (
    FULL_SCENARIOS,
    INIT_SCENARIOS,
    INIT_SMOKE_SCENARIOS,
    SMOKE_SCENARIOS,
    Scenario,
)


#: Live-telemetry session installed by ``--serve-metrics`` (see main()):
#: every trajectory then runs with a BusSink teed in, so the dashboard
#: streams the benchmark as it executes (and timed throughput includes
#: the bus overhead — which is the quantity the flag exists to observe).
_OBS_SESSION: Optional[Any] = None


def _obs_sink() -> Optional[Any]:
    return _OBS_SESSION.sink() if _OBS_SESSION is not None else None


def _run_engine(graph, stream, k: int, seed: int, backend: str,
                profile: bool, trace_path: Optional[str] = None,
                init: str = "free") -> Dict[str, Any]:
    """One full trajectory on a fresh structure; returns timing + ledger."""
    from repro.core import DynamicMST
    from repro.sim.metrics import PhaseProfiler

    rng = np.random.default_rng(seed)
    recorder = None
    if trace_path is not None:
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(trace_path, meta={"harness": "bench_run"})
    telemetry = _obs_sink()
    trace: Optional[Any] = recorder
    if telemetry is not None:
        if recorder is not None:
            from repro.obs import TeeSink

            trace = TeeSink(recorder, telemetry)
        else:
            trace = telemetry
    t_init = time.perf_counter()
    # The recorder rides through build so a measured (distributed) init
    # is captured too; timed throughput then includes recording overhead.
    dm = DynamicMST.build(graph, k, rng=rng, init=init, backend=backend,
                          trace=trace)
    init_wall_s = time.perf_counter() - t_init
    if profile:
        dm.net.ledger.profiler = PhaseProfiler()
    t0 = time.perf_counter()
    for batch in stream:
        dm.apply_batch(batch)
    wall_s = time.perf_counter() - t0
    dm.check()
    if trace is not None:
        dm.detach_trace()
    if recorder is not None:
        recorder.close()
    if telemetry is not None:
        telemetry.close()
    ledger = dm.net.ledger
    out: Dict[str, Any] = {
        "backend": backend,
        "wall_s": wall_s,
        "init_wall_s": init_wall_s,
        "init_rounds": dm.init_rounds,
        "rounds": ledger.rounds,
        "messages": ledger.messages,
        "words": ledger.words,
        "digest": ledger.digest(),
        "msf_weight": round(dm.total_weight(), 9),
        "strict_violations": dm.net.strict_violations,
    }
    if profile:
        out["profile"] = dm.net.ledger.profiler.as_dict()
    if trace_path is not None:
        out["trace"] = trace_path
    return out


def _run_faults(scenario: Scenario, reference: Dict[str, Any]) -> Dict[str, Any]:
    """A third, chaos trajectory: same workload under a seeded fault plan.

    The pre-batch crash (machine k//2 at the middle batch barrier) keeps
    the trajectory strict-clean: recovery runs before the dead machine
    would have to speak.  The fault run must still end on the reference
    forest — recovery overhead is allowed to change the bill, never the
    answer.
    """
    from repro.faults import CrashEvent, FaultPlan, run_chaos

    plan = FaultPlan(
        seed=scenario.seed + 1,
        drop=0.02,
        dup=0.01,
        crashes=(CrashEvent(batch=scenario.n_batches // 2,
                            machine=scenario.k // 2),),
    )
    t0 = time.perf_counter()
    chaos = run_chaos(scenario, plan, checkpoint_every=2)
    wall_s = time.perf_counter() - t0
    if not chaos["ok"]:
        raise AssertionError(
            f"{scenario.name}: chaos run diverged from the oracle in "
            f"{chaos['mismatches']} batch(es)"
        )
    if chaos["msf_weight"] != reference["msf_weight"]:
        raise AssertionError(
            f"{scenario.name}: chaos MSF weight {chaos['msf_weight']} != "
            f"reference {reference['msf_weight']}"
        )
    overhead = chaos["overhead_rounds"]
    return {
        "wall_s": wall_s,
        "plan": chaos["plan"],
        "rounds": chaos["rounds"],
        "recovery_rounds": overhead,
        "overhead_vs_reference": round(
            overhead / max(reference["rounds"], 1), 3
        ),
        "recoveries": chaos["recoveries"],
        "replayed_batches": chaos["replayed_batches"],
        "checkpoints": chaos["checkpoints"],
        "faults": chaos["faults"],
        "msf_weight": chaos["msf_weight"],
    }


def _wall(run: Dict[str, Any], init_mode: str) -> float:
    """The wall time a speedup is computed over for this init mode."""
    if init_mode == "free":
        # Oracle init charges nothing and runs the same scalar code under
        # every backend; the trajectory speedup is the update-phase speedup.
        return run["wall_s"]
    # Measured init is the point of these scenarios: the trajectory
    # speedup covers init + updates end to end.
    return run["init_wall_s"] + run["wall_s"]


def _best_of(runner, repeats: int, init_mode: str) -> Dict[str, Any]:
    """Repeat a trajectory and keep the fastest run (digests are checked
    to be identical across repeats — a repeat may change timing, never
    the ledger)."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(repeats, 1)):
        run = runner()
        if best is not None and run["digest"] != best["digest"]:
            raise AssertionError("repeat changed the ledger digest")
        if best is None or _wall(run, init_mode) < _wall(best, init_mode):
            best = run
    assert best is not None
    return best


def run_scenario(scenario: Scenario, profile: bool,
                 trace_dir: Optional[str] = None,
                 faults: bool = False,
                 repeats: int = 1) -> Dict[str, Any]:
    from repro.graphs import churn_stream, random_weighted_graph

    name, n, k = scenario.name, scenario.n, scenario.k
    batch, n_batches, seed = scenario.batch, scenario.n_batches, scenario.seed
    rng = np.random.default_rng(seed)
    graph = random_weighted_graph(n, scenario.m, rng)
    stream = list(churn_stream(graph.copy(), batch, n_batches, rng=rng))
    n_updates = sum(len(b) for b in stream)

    def trace_path(column: str) -> Optional[str]:
        if trace_dir is None:
            return None
        return os.path.join(trace_dir, f"{name}-{column}.jsonl")

    init_mode = scenario.init
    reference = _best_of(
        lambda: _run_engine(graph, stream, k, seed, backend="reference",
                            profile=False, trace_path=trace_path("reference"),
                            init=init_mode),
        repeats, init_mode,
    )
    result = {
        "name": name,
        "n": n,
        "k": k,
        "batch": batch,
        "n_batches": n_batches,
        "seed": seed,
        "init": init_mode,
        "n_updates": n_updates,
        "backends": ["reference", "inproc-columnar"],
        "reference": reference,
        "updates_per_s_reference": round(n_updates / max(reference["wall_s"], 1e-9), 2),
        "ledgers_identical": True,
    }
    line = (
        f"  {name:<14} n={n:<5} k={k:<3} "
        f"ref {result['updates_per_s_reference']:>8.1f} up/s"
    )
    # The columnar column is called ``fast`` (and its speedup also plain
    # ``speedup`` / ``init_speedup``) in every trajectory file.
    fast = _best_of(
        lambda: _run_engine(graph, stream, k, seed, backend="inproc-columnar",
                            profile=profile, trace_path=trace_path("fast"),
                            init=init_mode),
        repeats, init_mode,
    )
    if fast["digest"] != reference["digest"]:
        raise AssertionError(
            f"{name}: ledger digests diverge — inproc-columnar "
            f"{fast['digest'][:16]} vs reference {reference['digest'][:16]}"
        )
    if fast["msf_weight"] != reference["msf_weight"]:
        raise AssertionError(f"{name}: inproc-columnar MSF weight diverges")
    if fast["strict_violations"] or reference["strict_violations"]:
        raise AssertionError(f"{name}: strict violations recorded")

    speedup = round(_wall(reference, init_mode) / max(_wall(fast, init_mode), 1e-9), 3)
    result["fast"] = fast
    result["updates_per_s_fast"] = round(n_updates / max(fast["wall_s"], 1e-9), 2)
    result["speedup_fast"] = result["speedup"] = speedup
    line += f"  fast {result['updates_per_s_fast']:>8.1f} up/s {speedup:>5.2f}x"
    if init_mode != "free":
        init_speedup = round(
            reference["init_wall_s"] / max(fast["init_wall_s"], 1e-9), 3
        )
        result["init_speedup_fast"] = result["init_speedup"] = init_speedup
        line += f" (init {init_speedup:>5.2f}x)"
    print(f"{line}  digest {reference['digest'][:12]}")
    if faults:
        chaos = _run_faults(scenario, reference)
        result["faults"] = chaos
        print(
            f"  {name:<14} chaos: rounds {chaos['rounds']:>6} "
            f"(recovery {chaos['recovery_rounds']}, "
            f"{chaos['overhead_vs_reference']:.1%} of reference)  "
            f"recoveries={chaos['recoveries']} "
            f"weight matches reference"
        )
    return result


# ----------------------------------------------------------------------
# kernel microbenchmarks: vectorized Euler transforms vs scalar loops
# ----------------------------------------------------------------------

def _time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(rows: int) -> Dict[str, Any]:
    from repro.euler.labels import (JoinSpec, SplitSpec, join_m1_label,
                                    reroot_label, split_label)
    from repro.euler.vectorized import (join_m1_labels, reroot_labels,
                                        split_labels)
    from repro.graphs.dsu import DisjointSet
    from repro.perf.init_columnar import (ArrayDSU, GraphEdgeTable,
                                          min_outgoing_rows)

    rng = np.random.default_rng(7)
    size = 2 * (rows + 1)  # tour over rows+2 vertices
    labels = rng.integers(0, size, size=rows).astype(np.int64)

    out: Dict[str, Any] = {"rows": rows}

    d = size // 3
    t_vec = _time(lambda: reroot_labels(labels, d, size))
    t_sca = _time(lambda: [reroot_label(int(w), d, size) for w in labels])
    out["reroot"] = {"vector_s": t_vec, "scalar_s": t_sca,
                     "speedup": round(t_sca / max(t_vec, 1e-9), 1)}

    e_min = size // 4
    e_max = e_min + size // 2
    spec = SplitSpec(e_min=e_min, e_max=e_max, size=size, old_tour=1, inside_tour=2)
    in_domain = labels[(labels != e_min) & (labels != e_max)]
    t_vec = _time(lambda: split_labels(in_domain, spec))
    t_sca = _time(lambda: [split_label(int(w), spec) for w in in_domain])
    out["split"] = {"vector_s": t_vec, "scalar_s": t_sca,
                    "speedup": round(t_sca / max(t_vec, 1e-9), 1)}

    jspec = JoinSpec(a=size // 3, b=size // 5, size1=size, size2=size, tour1=1, tour2=2)
    jl = rng.integers(0, size, size=rows).astype(np.int64)
    t_vec = _time(lambda: join_m1_labels(jl, jspec))
    t_sca = _time(lambda: [join_m1_label(int(w), jspec) for w in jl])
    out["join_m1"] = {"vector_s": t_vec, "scalar_s": t_sca,
                      "speedup": round(t_sca / max(t_vec, 1e-9), 1)}

    # Borůvka min-reduction: per-component minimum outgoing edge over one
    # machine's edge table — the init fast path's hot kernel — against
    # the reference initialiser's candidate scan (dict walk + two
    # dsu.find calls per edge, as in distributed_init).  One DSU pair,
    # mid-contraction, serves this and the array_dsu kernel below.
    n_vert = max(rows // 8, 16)
    ids = np.arange(n_vert, dtype=np.int64)
    edge_dict: Dict[Any, float] = {}
    while len(edge_dict) < rows:
        us = rng.integers(0, n_vert, size=rows)
        vs = rng.integers(0, n_vert, size=rows)
        ws = rng.random(size=rows)
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            if u != v:
                key = (u, v) if u < v else (v, u)
                edge_dict.setdefault(key, w)
                if len(edge_dict) == rows:
                    break
    table = GraphEdgeTable(edge_dict, ids)
    sd = DisjointSet(range(n_vert))
    ad = ArrayDSU(ids)
    for a, b in rng.integers(0, n_vert, size=(n_vert // 3, 2)).tolist():
        if a != b:
            sd.union(a, b)
            ad.union(a, b)

    def _scalar_min_scan() -> Dict[int, tuple]:
        best: Dict[int, tuple] = {}
        for (u, v), w in edge_dict.items():
            ru, rv = sd.find(u), sd.find(v)
            if ru == rv:
                continue
            cand = ((w, u, v), u, v)
            for r in (ru, rv):
                cur = best.get(r)
                if cur is None or cand < cur:
                    best[r] = cand
        return best

    roots = ad.root_indices()
    t_vec = _time(lambda: min_outgoing_rows(table, roots))
    t_sca = _time(_scalar_min_scan)
    out["boruvka_min"] = {"vector_s": t_vec, "scalar_s": t_sca,
                          "speedup": round(t_sca / max(t_vec, 1e-9), 1)}

    # Array DSU: resolving every vertex's component representative —
    # vectorized pointer jumping vs one scalar find per vertex.
    verts = ids.tolist()
    t_vec = _time(lambda: ad.root_indices())
    t_sca = _time(lambda: [sd.find(v) for v in verts])
    out["array_dsu"] = {"vector_s": t_vec, "scalar_s": t_sca,
                        "speedup": round(t_sca / max(t_vec, 1e-9), 1)}

    for k in ("reroot", "split", "join_m1", "boruvka_min", "array_dsu"):
        print(f"  kernel {k:<11} rows={rows}  vector {out[k]['vector_s'] * 1e3:7.3f} ms  "
              f"scalar {out[k]['scalar_s'] * 1e3:8.3f} ms  {out[k]['speedup']:>6.1f}x")
    return out


# ----------------------------------------------------------------------
# __slots__ allocation win on the hot per-message / per-edge records
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _DictMessage:
    """``Message`` minus ``slots=True`` — isolates the layout effect."""

    src: int
    dst: int
    payload: Any
    words: int = 1

    def __post_init__(self) -> None:
        if self.words <= 0:
            raise ValueError("message size must be positive")
        if self.src == self.dst:
            raise ValueError("self-messages are free; do not send them")


def bench_alloc(count: int) -> Dict[str, Any]:
    from repro.euler.tour import ETEdge
    from repro.sim.message import Message

    def make_slots() -> list:
        return [Message(0, 1, None, 1) for _ in range(count)]

    def make_dict() -> list:
        return [_DictMessage(0, 1, None, 1) for _ in range(count)]

    t_slots = _time(lambda: make_slots(), repeats=3)
    t_dict = _time(lambda: make_dict(), repeats=3)

    msg = Message(0, 1, None, 1)
    et = ETEdge(0, 1, 1.0, 0, 1, 0)
    dct = _DictMessage(0, 1, None, 1)
    size_slots = sys.getsizeof(msg)
    size_dict = sys.getsizeof(dct) + sys.getsizeof(dct.__dict__)

    out = {
        "count": count,
        "message_has_slots": not hasattr(msg, "__dict__"),
        "etedge_has_slots": not hasattr(et, "__dict__"),
        "alloc_s_slots": t_slots,
        "alloc_s_dict_equiv": t_dict,
        "alloc_speedup": round(t_dict / max(t_slots, 1e-9), 2),
        "bytes_per_message_slots": size_slots,
        "bytes_per_message_dict_equiv": size_dict,
        "bytes_saved_per_message": size_dict - size_slots,
    }
    print(f"  alloc {count} Messages: slots {t_slots * 1e3:.1f} ms vs dict-equiv "
          f"{t_dict * 1e3:.1f} ms ({out['alloc_speedup']}x); "
          f"{size_slots} B/obj vs {size_dict} B/obj "
          f"({out['bytes_saved_per_message']} B saved)")
    return out


# ----------------------------------------------------------------------
# streaming frontier: coalescing × stream shape (tools/bench_run --stream)
# ----------------------------------------------------------------------

#: Coalescing variants the stream sweep measures per shape, all under the
#: one size-or-deadline cut rule.  The uncoalesced run is the
#: paper-faithful baseline the coalesced one is compared against.
STREAM_VARIANTS = [False, True]


def _run_stream_variant(stream, k: int, seed: int, coalesce: bool,
                        repeats: int) -> Dict[str, Any]:
    """One ingestion run, raw or coalesced, on a fresh structure."""
    from repro.core import DynamicMST

    best: Optional[Dict[str, Any]] = None
    for _ in range(max(repeats, 1)):
        dm = DynamicMST.build(stream.initial, k, rng=seed, init="free")
        telemetry = _obs_sink()
        if telemetry is not None:
            dm.attach_trace(telemetry)
        report = dm.ingest(stream, coalesce=coalesce)
        if telemetry is not None:
            dm.detach_trace()
            telemetry.close()
        dm.check()
        run = report.as_dict()
        if best is not None and run["forest_digest"] != best["forest_digest"]:
            raise AssertionError("repeat changed the final forest digest")
        if best is not None and run["rounds"] != best["rounds"]:
            raise AssertionError("repeat changed the ledger's round count")
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    assert best is not None
    return best


def run_stream_sweep(shapes: Sequence[str], k: int, seed: int, ticks: int,
                     rate: int, repeats: int) -> Dict[str, Any]:
    """Sweep coalescing × stream shape; returns the frontier payload.

    Both variants of a shape must end on the byte-identical forest
    digest (and it must match the sequential oracle) — coalescing may
    move a run along the throughput/staleness frontier, never off the
    correct forest.
    """
    from repro.graphs import forest_digest
    from repro.graphs.mst import kruskal_msf
    from repro.stream import make_shape

    out: List[Dict[str, Any]] = []
    for shape in shapes:
        stream = make_shape(shape, seed=seed, ticks=ticks, rate=rate)
        oracle = forest_digest(kruskal_msf(stream.final_graph()))
        runs: List[Dict[str, Any]] = []
        frontier: List[Dict[str, Any]] = []
        for coalesce in STREAM_VARIANTS:
            tag = "coalesced" if coalesce else "raw"
            run = _run_stream_variant(stream, k, seed, coalesce, repeats)
            if run["forest_digest"] != oracle:
                raise AssertionError(
                    f"{shape}: {tag} forest digest diverges from the "
                    f"sequential oracle"
                )
            runs.append(run)
            frontier.append({
                "shape": shape,
                "coalesced": coalesce,
                "updates_per_s": run["updates_per_s"],
                "p50_ticks": run["p50_ticks"],
                "p99_ticks": run["p99_ticks"],
                "rounds_per_update": run["rounds_per_update"],
                "shipped_fraction": round(
                    run["shipped"] / max(run["admitted"], 1), 4
                ),
            })
            print(f"  {shape:<15} {tag:<10}"
                  f"{run['updates_per_s']:>9.1f} up/s  "
                  f"ship {run['shipped']:>5}/{run['admitted']:<5} "
                  f"p50 {run['p50_ticks']:>6.1f}  p99 {run['p99_ticks']:>7.1f}  "
                  f"rnd/up {run['rounds_per_update']:>6.2f}")
        baseline, contender = runs
        speedup = round(
            contender["updates_per_s"] / max(baseline["updates_per_s"], 1e-9), 3
        )
        print(f"  {shape:<15} coalesced vs raw: {speedup:>5.2f}x "
              f"(digest {oracle[:12]})")
        out.append({
            "shape": shape,
            "k": k,
            "seed": seed,
            "ticks": ticks,
            "rate": rate,
            "admitted": baseline["admitted"],
            "oracle_digest": oracle,
            "digest_parity": True,
            "speedup_coalesced": speedup,
            "runs": runs,
            "frontier": frontier,
        })
    return {
        "variants": [{"coalesced": c} for c in STREAM_VARIANTS],
        "shapes": out,
    }


# ----------------------------------------------------------------------

def stream_payload(sweep: Dict[str, Any], *, strict: bool,
                   metadata: Dict[str, Any]) -> Dict[str, Any]:
    """The ``repro-bench-stream/2`` trajectory envelope.

    Factored out of main() so the schema is pinned by a regression test
    without running the sweep itself.
    """
    return {
        "schema": "repro-bench-stream/2",
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "strict": strict,
        "metadata": metadata,
        "stream": sweep,
    }


def _default_out_path(date: str, suffix: str) -> str:
    """``BENCH_<date><suffix>.json``, auto-suffixed if it already exists.

    Two runs on the same day used to silently clobber each other's
    trajectory file; the second run warns and writes ``..._2.json``
    (an explicit ``--out`` still overwrites deliberately).

    The counter is **per family**: ``BENCH_<date>.json``,
    ``BENCH_<date>_init.json`` and ``BENCH_<date>_stream.json`` number
    independently, so a same-day ``--stream`` run never perturbs the
    plain trajectory's suffix (and vice versa).  The next index is
    ``max + 1`` over the files that actually exist — deleting an
    intermediate run can never hand its slot to a later run, so suffix
    order always matches run order.
    """
    base = f"BENCH_{date}{suffix}"
    family = re.compile(re.escape(base) + r"(?:_(\d+))?\.json\Z")
    taken = [
        int(m.group(1) or 1)
        for m in (family.match(name) for name in os.listdir("."))
        if m is not None
    ]
    if not taken:
        return f"{base}.json"
    fresh = f"{base}_{max(taken) + 1}.json"
    print(f"warning: the {base} family already has {len(taken)} run(s) "
          f"today; writing {fresh} instead (pass --out to overwrite "
          f"deliberately)", file=sys.stderr)
    return fresh


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI-sized scenarios (still asserts equivalence)")
    ap.add_argument("--strict", action="store_true",
                    help="run all scenarios under REPRO_STRICT=1")
    ap.add_argument("--init", choices=["free", "distributed"], default="free",
                    help="scenario family: oracle-init churn trajectories "
                         "(default) or measured distributed-init trajectories "
                         "(Theorem 5.8 initialisation is part of the "
                         "benchmarked, digest-checked run)")
    ap.add_argument("--profile", action="store_true",
                    help="attach the phase profiler to the fast runs")
    ap.add_argument("--trace-dir", default=None,
                    help="capture a repro.trace JSONL per scenario per engine "
                         "into this directory (timed throughput then includes "
                         "recording overhead)")
    ap.add_argument("--faults", action="store_true",
                    help="add a chaos trajectory per scenario (seeded "
                         "drop/dup plan + a mid-trajectory crash) and report "
                         "recovery-round overhead; the fault run must end on "
                         "the reference forest")
    ap.add_argument("--out", default=None,
                    help="output JSON path (default BENCH_<date>.json, "
                         "auto-suffixed _2, _3... if it already exists; an "
                         "explicit --out overwrites)")
    ap.add_argument("--serve-metrics", type=int, default=None, const=0,
                    nargs="?", metavar="PORT",
                    help="serve live /metrics and the dashboard while the "
                         "benchmark runs; every trajectory streams to the "
                         "bus (default port: auto)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="run each trajectory this many times and keep the "
                         "fastest (damps timer noise for the floor checks)")
    ap.add_argument("--stream", action="store_true",
                    help="streaming-frontier mode: sweep raw vs coalesced "
                         "x stream shape through repro.stream and write "
                         "BENCH_<date>_stream.json instead of the backend "
                         "trajectory (see docs/streaming.md)")
    ap.add_argument("--stream-shapes", default="uniform,sliding-window,"
                    "flash-crowd,adversarial",
                    help="comma-separated stream shapes for --stream")
    ap.add_argument("--stream-k", type=int, default=8,
                    help="k-machine cluster size for --stream (capacity Θ(k))")
    ap.add_argument("--stream-seed", type=int, default=0,
                    help="seed for the --stream shape builders")
    ap.add_argument("--stream-ticks", type=int, default=24,
                    help="arrival horizon in ticks for --stream shapes")
    ap.add_argument("--stream-rate", type=int, default=8,
                    help="arrivals per tick for --stream shapes")
    ap.add_argument("--min-stream-speedup", type=float, default=None,
                    help="with --stream: fail unless the coalesced run "
                         "beats the uncoalesced baseline by this factor "
                         "(updates/s) on the sliding-window shape")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail unless the largest scenario is at least this "
                         "much faster with the columnar fast path")
    ap.add_argument("--min-floor", type=float, default=0.98,
                    help="fail if ANY full-run scenario's columnar speedup "
                         "falls below this floor (adaptive dispatch must "
                         "never make a workload slower; 0 disables; smoke "
                         "scenarios are exempt — their wall times are too "
                         "small to time meaningfully)")
    args = ap.parse_args(argv)

    if args.strict:
        os.environ["REPRO_STRICT"] = "1"
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)

    global _OBS_SESSION  # simlint: disable=SIM002 process-level metrics server handle, not simulated machine state; ledgers are unaffected
    if args.serve_metrics is not None:
        from repro.obs import ObsSession

        # Daemon threads; dies with the process if a trajectory asserts.
        _OBS_SESSION = ObsSession(port=args.serve_metrics).start()
        print(f"serving metrics at {_OBS_SESSION.url}/metrics "
              f"(dashboard {_OBS_SESSION.url}/)", file=sys.stderr)

    if args.stream:
        shapes = [s.strip() for s in args.stream_shapes.split(",") if s.strip()]
        print(f"bench_run: streaming frontier, k={args.stream_k}, "
              f"seed={args.stream_seed}, ticks={args.stream_ticks}, "
              f"rate={args.stream_rate}, strict="
              f"{'on' if args.strict else 'off'}")
        print("coalescing x shape sweep (uncoalesced is the baseline):")
        sweep = run_stream_sweep(shapes, args.stream_k, args.stream_seed,
                                 args.stream_ticks, args.stream_rate,
                                 args.repeats)
        payload = stream_payload(
            sweep,
            strict=bool(args.strict),
            metadata={
                "cpu_count": os.cpu_count(),
                "k": args.stream_k,
                "seed": args.stream_seed,
                "ticks": args.stream_ticks,
                "rate": args.stream_rate,
                "repeats": args.repeats,
            },
        )
        out_path = args.out or _default_out_path(payload["date"], "_stream")
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {out_path}")
        if _OBS_SESSION is not None:
            _OBS_SESSION.close()
            _OBS_SESSION = None
        if args.min_stream_speedup is not None:
            gate = next((s for s in sweep["shapes"]
                         if s["shape"] == "sliding-window"), None)
            if gate is None:
                print("FAIL: --min-stream-speedup needs the sliding-window "
                      "shape in --stream-shapes", file=sys.stderr)
                return 1
            if gate["speedup_coalesced"] < args.min_stream_speedup:
                print(f"FAIL: sliding-window coalesced speedup "
                      f"{gate['speedup_coalesced']}x < required "
                      f"{args.min_stream_speedup}x", file=sys.stderr)
                return 1
        print("all forest digests identical; ok")
        return 0

    if args.init == "distributed":
        scenarios = INIT_SMOKE_SCENARIOS if args.smoke else INIT_SCENARIOS
    else:
        scenarios = SMOKE_SCENARIOS if args.smoke else FULL_SCENARIOS
    kernel_rows = 2048 if args.smoke else 65536
    alloc_count = 20_000 if args.smoke else 200_000

    print(f"bench_run: {'smoke' if args.smoke else 'full'} trajectory, "
          f"init={args.init}, strict={'on' if args.strict else 'off'}, "
          f"{', tracing to ' + args.trace_dir if args.trace_dir else ''}")
    print("scenarios (reference vs inproc-columnar):")
    scenario_results = [
        run_scenario(s, profile=args.profile, trace_dir=args.trace_dir,
                     faults=args.faults, repeats=args.repeats)
        for s in scenarios
    ]
    print("kernels:")
    kernels = bench_kernels(kernel_rows)
    print("allocation:")
    alloc = bench_alloc(alloc_count)

    from repro.perf import config as perf_config

    metadata: Dict[str, Any] = {
        "cpu_count": os.cpu_count(),
        "backends": ["reference", "inproc-columnar"],
        "repeats": args.repeats,
        "update_min_rows": perf_config.UPDATE_MIN_ROWS,
    }

    payload = {
        "schema": "repro-bench-trajectory/2",
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mode": "smoke" if args.smoke else "full",
        "strict": bool(args.strict),
        "init": args.init,
        "metadata": metadata,
        "scenarios": scenario_results,
        "kernels": kernels,
        "allocation": alloc,
    }

    suffix = "_init" if args.init == "distributed" else ""
    out_path = args.out or _default_out_path(payload["date"], suffix)
    with open(out_path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}")

    if _OBS_SESSION is not None:
        _OBS_SESSION.close()
        _OBS_SESSION = None

    failed = False
    largest = max(scenario_results, key=lambda r: r["n"] * r["k"])
    if args.min_speedup is not None:
        if largest.get("speedup", 0.0) < args.min_speedup:
            print(f"FAIL: {largest['name']} columnar speedup "
                  f"{largest.get('speedup')}x < required {args.min_speedup}x",
                  file=sys.stderr)
            failed = True
    if args.min_floor and not args.smoke:
        # The guarantee of the adaptive dispatch gates: no scenario may
        # regress below the floor under the columnar engine.
        for r in scenario_results:
            if r["speedup"] < args.min_floor:
                print(f"FAIL: {r['name']} columnar speedup {r['speedup']}x "
                      f"below the {args.min_floor}x no-regression floor",
                      file=sys.stderr)
                failed = True
    if failed:
        return 1
    print("all ledgers byte-identical; ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
