"""The repository benchmark: three workloads, measured from outside.

One run of one workload (the form ``BENCHMARK.json`` declares)::

    python3 bench/run.py --workload core-batch64 --seed 0 --seconds 30 --trace 0

prints every metric by name with its unit, a ``{"detail": ...}`` line,
and as its last line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  An untraced run is ``spec.REPS`` repetitions; a traced
run is a traced repetition between two untraced ones, which
``trace.overhead`` compares it with.

A full set, every workload ``spec.RUNS`` times in fresh child processes
interleaved, plus one traced run each, written to one file::

    PYTHONPATH=src python bench/run.py --seed 0 --out bench/results/NAME.json

``bench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

import numpy as np

import spec
from spans import Tracer

#: Longest wait for one child step (daemon ready, drain, exit).
CHILD_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """The program under test failed in a way no metric can describe."""


@dataclass
class Rep:
    """One repetition of one workload.

    Every repetition of a run replays the same inputs, so ``chunks`` and
    ``items`` line up index by index across repetitions.
    """

    traced: bool
    #: set-up times, in seconds, in the order they ran
    setups: List[float]
    #: requests (serve) or updates (core) the repetition sent
    work: int
    #: consecutive pieces of the timed work, in seconds; they sum to its wall time
    chunks: List[float]
    #: latency of each request (serve) or batch (core), in seconds
    items: List[float]
    #: cost of the workload's primary metric, for ``trace.overhead``
    cost: float
    updates: int
    ledger: Dict[str, int]
    ledger_digest: str
    #: the final forest matches Kruskal on the generator's graph (and, on
    #: the core, ``dm.check()`` passes)
    forest_ok: bool
    peak_rss_mb: float
    attempted: int
    failed: int
    counters: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, float] = field(default_factory=dict)
    invalid: List[str] = field(default_factory=list)
    spans: Dict[str, float] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)
    proc: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.work / sum(self.chunks)


def pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ms(values: List[float], q: float) -> float:
    return pct(values, q) * 1000.0


def best_of(rows: List[List[float]]) -> List[float]:
    """Element-wise minimum over repetitions of the same inputs.

    On a shared host, other tenants slow stretches of a run by up to 60%;
    the program's own variation repeats in every repetition.  The best of
    the repetitions keeps the second and drops the first.
    """
    return [min(column) for column in zip(*rows)]


def _plan(trace: bool) -> List[bool]:
    # The traced repetition sits between two untraced ones, so warm-up and
    # slow drift of the host fall on both sides of ``trace.overhead``.
    return [False, True, False] if trace else [False] * spec.REPS


# ----------------------------------------------------------------------
# core-batch64: the core alone, in this process
# ----------------------------------------------------------------------

def run_core(p: dict, seed: int, seconds: float, trace: bool) -> List[Rep]:
    from repro.graphs.mst import forest_digest, kruskal_msf

    from inputs import core_input

    batches = max(1, round(p["batches_per_s"] * seconds / spec.REPS))
    graph, stream = core_input(
        spec.GRAPH_SEED, seed, p["n"], p["m"], p["batch"], batches, p["p_add"]
    )
    expected = forest_digest(kruskal_msf(stream.final_graph()))
    return [_core_rep(p, graph, stream, expected, traced) for traced in _plan(trace)]


def _core_rep(p: dict, graph, stream, expected: str, traced: bool) -> Rep:
    from repro.core.api import DynamicMST
    from repro.errors import ProtocolError
    from repro.graphs.mst import forest_digest

    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        wall0, cpu0 = perf_counter(), process_time()
        dm = DynamicMST.build(graph, p["k"], rng=spec.GRAPH_SEED, init=p["init"])
        setup_s = perf_counter() - wall0
        ledger = dm.net.ledger
        before = (ledger.rounds, ledger.messages, ledger.words)
        latency = []
        for batch in stream:
            start = perf_counter()
            dm.apply_batch(batch)
            latency.append(perf_counter() - start)
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
    try:
        dm.check()
        consistent = True
    except ProtocolError:
        consistent = False
    updates = sum(len(b) for b in stream)
    rep = Rep(
        traced=traced,
        setups=[setup_s],
        work=updates,
        chunks=latency,
        items=latency,
        cost=sum(latency) / updates,
        updates=updates,
        ledger={
            "rounds": ledger.rounds - before[0],
            "messages": ledger.messages - before[1],
            "words": ledger.words - before[2],
        },
        ledger_digest=ledger.digest(),
        forest_ok=consistent and forest_digest(dm.msf_edges()) == expected,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=updates,
        failed=0,
    )
    if tracer is not None:
        rep.spans = tracer.report(wall)
        rep.missing = tracer.missing
        rep.proc = {"wall_s": wall, "cpu_s": cpu, "span_total_s": tracer.total_s()}
    return rep


# ----------------------------------------------------------------------
# serve-write and serve-mixed: a daemon child per repetition
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _pinned():
    """Pin this process, the load generator, to one CPU and yield another
    for the daemon (None on a single CPU).  Left to the scheduler, the two
    sometimes share a CPU, which doubled the run-to-run spread of the
    serve-mixed median latency."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield cpus[1]
    finally:
        os.sched_setaffinity(0, cpus)


async def _daemon_rep(p: dict, traced: bool, load: Callable, cpu: Optional[int]):
    """Start ``bench/daemon.py`` on ``cpu``, drive it with ``load(port)``,
    stop it.  Returns the daemon's report, the load result and
    spawn-to-ready time.
    """
    cmd = [
        sys.executable, str(spec.BENCH / "daemon.py"),
        "--n", str(p["n"]), "--m", str(p["m"]), "--k", str(p["k"]),
        "--seed", str(spec.GRAPH_SEED),
    ]
    if traced:
        cmd.append("--trace")
    spawned = perf_counter()
    proc = await asyncio.create_subprocess_exec(
        *cmd,
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
        env=spec.scrubbed_env(),
        cwd=str(spec.ROOT),
    )
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    stderr = asyncio.create_task(proc.stderr.read())
    report = b""
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), CHILD_TIMEOUT)
        if line:
            spawn_ready_s = perf_counter() - spawned
            result = await asyncio.wait_for(load(json.loads(line)["ready"]), CHILD_TIMEOUT)
            proc.stdin.write(b"stop\n")
            await proc.stdin.drain()
            proc.stdin.close()
            report = await asyncio.wait_for(proc.stdout.readline(), CHILD_TIMEOUT)
        await asyncio.wait_for(proc.wait(), CHILD_TIMEOUT)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        err = (await stderr).decode(errors="replace")
    if proc.returncode != 0 or not report:
        raise BenchError(f"daemon exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(report), result, spawn_ready_s


def _serve_rep(traced: bool, daemon: dict, load, chunks: List[float], expected: str,
               spawn_ready_s: float) -> Rep:
    stats = daemon["stats"]
    rep = Rep(
        traced=traced,
        setups=daemon["setup_s"],
        work=load.sent,
        chunks=chunks,
        items=load.write_latency + load.read_latency,
        cost=load.wall_s / load.sent,
        updates=stats["admitted"],
        ledger=daemon["ledger"],
        ledger_digest=daemon["ledger_digest"],
        forest_ok=daemon["forest_digest"] == expected,
        peak_rss_mb=daemon["peak_rss_mb"],
        attempted=load.sent,
        failed=load.errors + load.sent - load.answered,
        counters={
            "stream.cuts": stats["cuts"],
            "stream.batches": stats["batches"],
            "stream.shipped_ratio": stats["shipped"] / max(stats["admitted"], 1),
            "stream.staleness_p50_ticks": stats["p50_ticks"],
            "stream.staleness_p99_ticks": stats["p99_ticks"],
            "serve.peak_queue_depth": stats["peak_queue_depth"],
        },
        diagnostics={"spawn_ready_s": spawn_ready_s},
    )
    if load.errors:
        rep.invalid.append(f"rejected commands: {sorted(set(load.error_codes))}")
    if not load.drained:
        rep.invalid.append(f"{load.sent - load.answered} responses missing at the drain deadline")
    if traced:
        rep.spans = daemon["spans"]
        rep.missing = daemon["missing"]
        rep.proc = {
            "wall_s": daemon["wall_s"], "cpu_s": daemon["cpu_s"],
            "span_total_s": daemon["span_total_s"],
        }
    return rep


def _daemon_reps(p: dict, trace: bool, load: Callable, score: Callable) -> List[Rep]:
    """Run the repetitions of a serve workload: each starts a daemon,
    drives it with ``load(port)`` and turns what it saw into a
    :class:`Rep` with ``score(traced, daemon_report, load_result, ready_s)``."""

    async def reps(cpu: Optional[int]) -> List[Rep]:
        out = []
        for traced in _plan(trace):
            out.append(score(traced, *await _daemon_rep(p, traced, load, cpu)))
        return out

    with _pinned() as cpu:
        return asyncio.run(reps(cpu))


def run_serve_write(p: dict, seed: int, seconds: float, trace: bool) -> List[Rep]:
    from repro.graphs.mst import forest_digest, kruskal_msf

    from inputs import serve_graph, write_commands
    from load import closed_loop

    count = max(p["window"], round(p["mutations_per_s"] * seconds / spec.REPS))
    graph = serve_graph(spec.GRAPH_SEED, p["n"], p["m"])
    frames, final = write_commands(graph, count, p["p_add"], seed)
    expected = forest_digest(kruskal_msf(final))
    window = p["window"]

    def score(traced: bool, daemon: dict, load, ready: float) -> Rep:
        # One chunk per window of acknowledgements: the same commands,
        # hence the same cuts, in every repetition.
        marks = [0.0] + load.acked_at[window - 1::window]
        if len(load.acked_at) % window:
            marks.append(load.acked_at[-1])
        chunks = [b - a for a, b in zip(marks, marks[1:])]
        return _serve_rep(traced, daemon, load, chunks, expected, ready)

    return _daemon_reps(
        p, trace, lambda port: closed_loop(port, frames, window, CHILD_TIMEOUT), score
    )


def run_serve_mixed(p: dict, seed: int, seconds: float, trace: bool) -> List[Rep]:
    from repro.graphs.mst import forest_digest, kruskal_msf

    from inputs import mixed_schedule, serve_graph
    from load import open_loop

    window = p["window_share"] * seconds / spec.REPS
    schedule = mixed_schedule(
        serve_graph(spec.GRAPH_SEED, p["n"], p["m"]), window, p["write_rate"], p["read_rate"],
        p["hot_pairs"], p["zipf"], seed,
    )
    expected = forest_digest(kruskal_msf(schedule.final))

    def score(traced: bool, daemon: dict, load, ready: float) -> Rep:
        rep = _serve_rep(traced, daemon, load, [load.wall_s], expected, ready)
        rep.cost = pct(rep.items, 50)
        late_ms = _ms(load.lateness, 99)
        rep.diagnostics.update(
            read_p50_ms=_ms(load.read_latency, 50),
            read_p99_ms=_ms(load.read_latency, 99),
            write_ack_p50_ms=_ms(load.write_latency, 50),
            write_ack_p99_ms=_ms(load.write_latency, 99),
            reads=len(load.read_latency),
            writes=len(load.write_latency),
            lateness_p99_ms=late_ms,
        )
        if late_ms > spec.MAX_LATENESS_P99_MS:
            rep.invalid.append(f"generator lateness p99 {late_ms:.2f} ms")
        return rep

    return _daemon_reps(p, trace, lambda port: open_loop(port, schedule, p["drain_s"]), score)


RUNNERS = {
    "core-batch64": run_core,
    "serve-write": run_serve_write,
    "serve-mixed": run_serve_mixed,
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(reps: List[Rep]) -> Dict[str, float]:
    plain = [r for r in reps if not r.traced]
    return {
        "setup_s": statistics.median(best_of([r.setups for r in plain])),
        "throughput_per_s": plain[0].work / sum(best_of([r.chunks for r in plain])),
        "latency_p50_ms": _ms(best_of([r.items for r in plain]), 50),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
    }


def per_layer(reps: List[Rep]) -> Dict[str, float]:
    traced = next(r for r in reps if r.traced)
    plain = [r for r in reps if not r.traced]
    proc = traced.proc
    wall = proc["wall_s"]
    out = dict(traced.spans)
    out.update({f"sim.{key}": value for key, value in traced.ledger.items()})
    out["sim.rounds_per_update"] = traced.ledger["rounds"] / max(traced.updates, 1)
    for name in (
        "stream.cuts", "stream.batches", "stream.shipped_ratio",
        "stream.staleness_p50_ticks", "stream.staleness_p99_ticks", "serve.peak_queue_depth",
    ):
        out[name] = traced.counters.get(name, 0)
    out["proc.idle.share"] = 1.0 - proc["cpu_s"] / wall
    out["proc.other.share"] = (proc["cpu_s"] - proc["span_total_s"]) / wall
    out["trace.overhead"] = traced.cost / statistics.mean(r.cost for r in plain)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, params: Optional[dict] = None):
    """Run one workload; return ``(result, detail)``.

    ``result`` is the contract's last line; ``params`` overrides the
    workload's parameters (the tests use it to shrink the inputs).
    """
    p = dict(spec.WORKLOADS[name], **(params or {}))
    reps = RUNNERS[name](p, seed, seconds, trace)
    declared = spec.declaration()["per_layer" if trace else "end_to_end"]
    values = per_layer(reps) if trace else end_to_end(reps)
    digests = sorted({r.ledger_digest for r in reps})
    plain = [r for r in reps if not r.traced]
    best = best_of([r.items for r in plain])
    diagnostics: Dict[str, float] = {
        "latency_samples": len(best),
        "latency_p99_ms": _ms(best, 99),
        "latency_mean_ms": 1000.0 * sum(best) / len(best),
    }
    for key in plain[0].diagnostics:
        diagnostics[key] = statistics.median(r.diagnostics[key] for r in plain)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": p,
        "backend": spec.resolved_backend(),
        "ledger_digests": digests,
        "forest_ok": [r.forest_ok for r in reps],
        "invalid": [f"rep {i}: {why}" for i, r in enumerate(reps) for why in r.invalid],
        "missing": sorted({m for r in reps for m in r.missing}),
        "diagnostics": diagnostics,
        "reps": [
            {
                "traced": r.traced, "setup_s": r.setups, "throughput_per_s": r.throughput,
                "latency_p50_ms": _ms(r.items, 50), "latency_p99_ms": _ms(r.items, 99),
                "peak_rss_mb": r.peak_rss_mb, "updates": r.updates, "ledger": r.ledger,
                "counters": r.counters, "diagnostics": r.diagnostics,
            }
            for r in reps
        ],
    }
    result = {
        "correct": all(r.forest_ok for r in reps) and len(digests) == 1,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, detail


# ----------------------------------------------------------------------
# a full set: every workload in fresh child processes
# ----------------------------------------------------------------------

def _child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [
        sys.executable, str(spec.BENCH / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=spec.scrubbed_env(),
        cwd=str(spec.ROOT), timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    detail = next(json.loads(x)["detail"] for x in lines if x.startswith('{"detail"'))
    return {"result": json.loads(lines[-1]), "detail": detail}


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=str(spec.ROOT)
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _quartiles(values: List[float]) -> Dict[str, float]:
    # Inclusive quartiles: of five runs, the second and fourth, so a single
    # run caught in a slow stretch of the host does not set the spread.
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3}


def summarize_runs(runs: List[dict], traced: List[dict]) -> dict:
    """Median and quartiles of every metric over a workload's runs."""
    ok = [r for r in runs if "result" in r]
    metrics: Dict[str, dict] = {}
    for run in ok:
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for m in metrics.values():
        m.update(_quartiles(m["values"]))
    diagnostics: Dict[str, dict] = {}
    for run in ok:
        for name, value in run["detail"]["diagnostics"].items():
            diagnostics.setdefault(name, {"values": []})["values"].append(value)
    for d in diagnostics.values():
        d.update(_quartiles(d["values"]))
    everything = ok + [t for t in traced if "result" in t]
    return {
        "metrics": metrics,
        "diagnostics": diagnostics,
        "per_layer": [t["result"]["metrics"] for t in traced if "result" in t],
        "ledger_digests": sorted({d for r in everything for d in r["detail"]["ledger_digests"]}),
        "correct": all(r["result"]["correct"] for r in everything),
        "failed": sum(r["result"]["failed"] for r in everything),
        "invalid": [r["error"] for r in runs + traced if "error" in r]
        + [why for r in everything for why in r["detail"]["invalid"]],
        "missing": sorted({m for r in everything for m in r["detail"]["missing"]}),
        "runs": runs,
        "traced": traced,
    }


def run_sets(seed: int, seconds: float, sets: int, scrubbed: List[str]) -> dict:
    names = list(spec.WORKLOADS)
    runs: Dict[str, List[dict]] = {n: [] for n in names}
    traced: Dict[str, List[dict]] = {n: [] for n in names}
    for s in range(sets):
        for _ in range(spec.RUNS):
            for name in names:
                runs[name].append(dict(_child(name, seed, seconds, False), set=s))
        for name in names:
            traced[name].append(dict(_child(name, seed, seconds, True), set=s))
    return {
        "schema": "repro-bench/1",
        "meta": {
            "git_sha": _git_sha(),
            "seed": seed,
            "seconds": seconds,
            "sets": sets,
            "runs_per_set": spec.RUNS,
            "reps_per_run": spec.REPS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "backend": spec.resolved_backend(),
            "scrubbed_env": scrubbed,
        },
        "workloads": {n: summarize_runs(runs[n], traced[n]) for n in names},
    }


# ----------------------------------------------------------------------
# printing and the command line
# ----------------------------------------------------------------------

def _print_metrics(metrics: Dict[str, dict]) -> None:
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")


def _print_set(out: dict) -> None:
    for name, w in out["workloads"].items():
        status = "correct" if w["correct"] else "INCORRECT"
        print(f"{name}: {status}, failed={w['failed']}, digests={len(w['ledger_digests'])}")
        for metric, m in w["metrics"].items():
            print(
                f"  {metric:22s} {m['median']:>12.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                f" {m['unit']} (n={len(m['values'])})"
            )
        for metric, d in w["diagnostics"].items():
            print(f"  ~{metric:21s} {d['median']:>12.6g} (n={len(d['values'])})")
        for layer in w["per_layer"]:
            shares = sorted(
                ((k.removesuffix(".share"), v["value"]) for k, v in layer.items()
                 if k.endswith(".share")),
                key=lambda kv: -kv[1],
            )
            print("  traced: " + ", ".join(f"{k} {v:.1%}" for k, v in shares if v >= 0.005))
        for why in w["invalid"]:
            print(f"  INVALID {why}")
        if w["missing"]:
            print(f"  missing span targets: {w['missing']}")


def main() -> int:
    declared = spec.declaration()
    parser = argparse.ArgumentParser(description="The repro benchmark.")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="run a full set of every workload into this file")
    parser.add_argument("--sets", type=int, default=1, help="full sets to run with --out")
    args = parser.parse_args()
    scrubbed = spec.import_repro()
    if args.workload is None:
        if args.out is None:
            parser.error("give --workload, or --out for a full set")
        out = run_sets(args.seed, args.seconds, args.sets, scrubbed)
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        _print_set(out)
        ok = all(w["correct"] and not w["invalid"] for w in out["workloads"].values())
        return 0 if ok else 1
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    _print_metrics(result["metrics"])
    for why in detail["invalid"]:
        print(f"INVALID {why}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
