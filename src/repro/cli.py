"""Command-line interface: quick demos without writing code.

    python -m repro demo --n 200 --m 600 --k 8 --batches 5 --batch-size 8
    python -m repro verify --seed 3
    python -m repro lowerbound --k 4 --delta 1.0
    python -m repro trace small -o run.jsonl
    python -m repro report run.jsonl
    python -m repro trace-diff a.jsonl b.jsonl
    python -m repro chaos smoke-medium --drop 0.02 --crashes 1:3
    python -m repro watch smoke-medium
    python -m repro stream sliding-window
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import DynamicMST
    from repro.graphs import churn_stream, random_weighted_graph

    rng = np.random.default_rng(args.seed)
    if args.input:
        from repro.graphs.io import read_edge_list

        g = read_edge_list(args.input)
    else:
        g = random_weighted_graph(args.n, args.m, rng)
    dm = DynamicMST.build(g, args.k, rng=rng, init=args.init, engine=args.engine,
                          backend=args.backend)
    print(f"n={args.n} m={args.m} k={args.k} engine={args.engine}")
    print(f"init: {dm.init_rounds} rounds; MSF weight {dm.total_weight():.3f}")
    for i, batch in enumerate(
        churn_stream(dm.shadow.copy(), args.batch_size, args.batches, rng=rng)
    ):
        rep = dm.apply_batch(batch)
        print(f"batch {i}: {rep.size:>3} updates  {rep.rounds:>5} rounds  "
              f"weight {dm.total_weight():.3f}")
    dm.check()
    print("consistency check passed")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core import DynamicMST
    from repro.graphs import churn_stream, random_weighted_graph

    rng = np.random.default_rng(args.seed)
    failures = 0
    for trial in range(args.trials):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(0, n * (n - 1) // 2 // 2))
        k = int(rng.integers(2, 9))
        g = random_weighted_graph(n, m, rng, connected=False)
        dm = DynamicMST.build(g, k, rng=rng, init="free", engine=args.engine)
        try:
            for batch in churn_stream(g, int(rng.integers(1, k + 2)), 5, rng=rng):
                dm.apply_batch(batch)
                dm.check()
        except Exception as exc:  # noqa: BLE001 - CLI surface
            failures += 1
            print(f"trial {trial}: FAILED — {type(exc).__name__}: {exc}")
    print(f"{args.trials - failures}/{args.trials} randomized trials passed")
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core import DynamicMST
    from repro.graphs.io import read_stream

    stream = read_stream(args.stream)
    dm = DynamicMST.build(stream.initial, args.k, rng=args.seed, init=args.init)
    print(f"replaying {len(stream)} batches over k={args.k} machines "
          f"(init {dm.init_rounds} rounds)")
    for i, batch in enumerate(stream):
        if not batch:
            continue
        rep = dm.apply_batch(batch)
        print(f"batch {i}: {rep.size:>3} updates  {rep.rounds:>5} rounds")
    dm.check()
    print(f"done; total {dm.rounds} rounds, MSF weight {dm.total_weight():.4f}")
    return 0


def _serving_metrics(args: argparse.Namespace):  # -> context manager
    """An :class:`~repro.obs.ObsSession` for ``--serve-metrics``, or a no-op.

    Yields the live telemetry sink to tee into the run (``None`` when
    the flag is absent) and prints the scrape URL once the server is up.
    """
    from contextlib import contextmanager

    @contextmanager
    def _ctx():
        port = getattr(args, "serve_metrics", None)
        if port is None:
            yield None
            return
        from repro.obs import ObsSession

        with ObsSession(port=port) as session:
            print(f"serving metrics at {session.url}/metrics "
                  f"(dashboard {session.url}/)", file=sys.stderr)
            sink = session.sink()
            try:
                yield sink
            finally:
                sink.close()

    return _ctx()


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import get_scenario, run_traced

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    out = args.out or f"{scenario.name}.trace.jsonl"
    with _serving_metrics(args) as telemetry:
        summary = run_traced(
            scenario, out, engine=args.engine,
            perturb_batch=args.perturb_batch, backend=args.backend,
            telemetry=telemetry,
        )
    print(f"traced scenario {scenario.name}: n={scenario.n} k={scenario.k} "
          f"batch={scenario.batch}x{scenario.n_batches}")
    print(f"rounds={summary['rounds']} messages={summary['messages']} "
          f"words={summary['words']} events={summary['events']}")
    print(f"ledger digest {summary['digest'][:16]}")
    print(f"wrote {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.trace import read_trace, render_text, summarize, to_json, to_prometheus
    from repro.trace.events import TraceFormatError

    try:
        events = read_trace(args.trace)
        summary = summarize(events, envelope=args.envelope)
    except (TraceFormatError, OSError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(to_json(summary), indent=2))
    elif args.prometheus:
        print(to_prometheus(events, envelope=args.envelope), end="")
    else:
        print(render_text(summary))
    return 1 if summary.budget_violations or summary.violations else 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.trace import first_divergence, read_trace, render_divergence
    from repro.trace.events import TraceFormatError

    try:
        events_a = read_trace(args.a)
        events_b = read_trace(args.b)
        divergence = first_divergence(events_a, events_b)
    except (TraceFormatError, OSError) as exc:
        print(f"cannot diff traces: {exc}", file=sys.stderr)
        return 2
    print(
        render_divergence(
            divergence, events_a, events_b,
            name_a=args.a, name_b=args.b, context=args.context,
        )
    )
    return 1 if divergence is not None else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults import FaultPlan, run_chaos
    from repro.trace import get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.plan:
        with open(args.plan) as f:
            plan = FaultPlan.from_spec(json.load(f))
    else:
        plan = FaultPlan(
            seed=args.fault_seed,
            drop=args.drop,
            dup=args.dup,
            reorder=args.reorder,
            crashes=FaultPlan.parse_crashes(args.crashes or ""),
        )
    with _serving_metrics(args) as telemetry:
        summary = run_chaos(
            scenario, plan, checkpoint_every=args.checkpoint_every,
            engine=args.engine, sink=args.out, backend=args.backend,
            telemetry=telemetry,
        )
    print(f"chaos scenario {scenario.name}: n={scenario.n} k={scenario.k} "
          f"batch={scenario.batch}x{scenario.n_batches}")
    spec = summary["plan"]
    print(f"plan: seed={spec['seed']} drop={spec['drop']} dup={spec['dup']} "
          f"reorder={spec['reorder']} crashes={len(spec['crashes'])}")
    faults = summary["faults"]
    mix = "  ".join(f"{k}={v}" for k, v in sorted(faults.items()) if v)
    print(f"injected: {mix or 'nothing'}")
    print(f"recoveries={summary['recoveries']} "
          f"replayed_batches={summary['replayed_batches']} "
          f"checkpoints={summary['checkpoints']}")
    print(f"rounds={summary['rounds']} "
          f"(recovery/retry overhead {summary['overhead_rounds']})")
    for i, b in enumerate(summary["batches"]):
        status = "ok" if b["ok"] else "MISMATCH"
        print(f"batch {i}: {b['size']:>3} updates  {b['rounds']:>5} rounds  "
              f"weight {b['weight']:.3f}  {status}")
    if args.out:
        print(f"wrote {args.out}")
    if not summary["ok"]:
        print(f"{summary['mismatches']} batch(es) diverged from the "
              "sequential oracle", file=sys.stderr)
        return 1
    print("all batches match the sequential oracle; consistency check passed")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs import watch_scenario
    from repro.trace import get_scenario

    try:
        get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    def on_ready(session) -> None:  # noqa: ANN001 - CLI callback
        print(f"watching {args.scenario}: dashboard {session.url}/  "
              f"metrics {session.url}/metrics")
        if args.loops == 0:
            print("looping until interrupted (Ctrl-C to stop)")

    def on_loop(i: int, summary) -> None:  # noqa: ANN001 - CLI callback
        print(f"loop {i}: rounds={summary['rounds']} "
              f"words={summary['words']} digest={summary['digest'][:16]}")

    report = watch_scenario(
        args.scenario, host=args.host, port=args.port, loops=args.loops,
        engine=args.engine, backend=args.backend, envelope=args.envelope,
        on_ready=on_ready, on_loop=on_loop,
    )
    snap = report["snapshot"]
    print(f"stopped after {report['loops']} loop(s); "
          f"{snap['totals']['rounds']} rounds, "
          f"{snap['bus']['events']} bus events "
          f"({snap['bus']['dropped']} dropped)")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core import DynamicMST
    from repro.stream import make_shape, shape_names

    if args.shape not in shape_names():
        print(f"unknown stream shape {args.shape!r}; known: "
              f"{', '.join(shape_names())}", file=sys.stderr)
        return 2
    stream = make_shape(args.shape, seed=args.seed, ticks=args.ticks,
                        rate=args.rate)
    print(f"shape {args.shape}: {len(stream)} arrivals over "
          f"{stream.horizon + 1} ticks, k={args.k} "
          f"(capacity Θ(k)={args.k}), "
          f"coalescing {'off' if args.no_coalesce else 'on'}")
    with _serving_metrics(args) as telemetry:
        dm = DynamicMST.build(stream.initial, args.k, rng=args.seed,
                              init=args.init)
        if telemetry is not None:
            dm.attach_trace(telemetry)
        rep = dm.ingest(stream, coalesce=not args.no_coalesce)
        if telemetry is not None:
            dm.detach_trace()
    dm.check()
    reasons = "  ".join(f"{k}={v}" for k, v in sorted(rep.cut_reasons.items()))
    print(f"admitted {rep.admitted}  shipped {rep.shipped}  "
          f"absorbed {rep.absorbed} "
          f"({rep.absorbed / max(rep.admitted, 1):.0%} coalesced away)")
    print(f"cuts {rep.cuts} ({reasons or 'none'})  batches {rep.batches}  "
          f"rounds {rep.rounds}  elapsed {rep.elapsed_ticks} ticks")
    print(f"staleness p50 {rep.p50_ticks:.0f} ticks  p99 {rep.p99_ticks:.0f} "
          f"ticks  peak queue {rep.peak_queue_depth}")
    print(f"{rep.rounds_per_update:.2f} rounds/update")
    print(f"MSF weight {rep.msf_weight:.4f}  forest digest "
          f"{rep.forest_digest[:16]}")
    print("consistency check passed")
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.serve import ServeConfig

    return ServeConfig.from_env(
        k=args.k, n=args.n, m=args.m, seed=args.seed,
        init=args.init, backend=args.backend,
        host=args.host, port=args.port,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    config = _serve_config(args)

    async def _serve(telemetry) -> int:
        import signal

        from repro.serve import MSTDaemon, verify_determinism

        daemon = MSTDaemon(config, telemetry=telemetry)
        port = await daemon.start_tcp()
        print(f"repro.serve listening on {config.host}:{port}  "
              f"(k={config.k} n={config.n} m={config.m} seed={config.seed} "
              f"backend={config.resolved_backend()})",
              flush=True)
        print("protocol repro-serve/1: line-delimited JSON; "
              "see docs/serving.md", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        await stop.wait()
        await daemon.shutdown(drain=True)
        stats = daemon.stats()
        print(f"drained: admitted={stats['admitted']} "
              f"rejected={stats['rejected']} cuts={stats['cuts']} "
              f"sessions={stats['sessions_served']}")
        gate = verify_determinism(daemon.reducer)
        status = "ok" if gate["ok"] else "MISMATCH"
        print(f"determinism gate: {status}  "
              f"ledger {gate['live_ledger_digest'][:16]}")
        return 0 if gate["ok"] else 1

    with _serving_metrics(args) as telemetry:
        try:
            return asyncio.run(_serve(telemetry))
        except KeyboardInterrupt:
            return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    async def _run() -> int:
        if args.connect:
            from repro.serve.loadgen import run_tcp

            host, _, port = args.connect.rpartition(":")
            report = await run_tcp(
                host or "127.0.0.1", int(port),
                clients=args.clients, commands=args.commands, seed=args.seed,
            )
            daemon = None
        else:
            from repro.serve.loadgen import run_embedded

            config = _serve_config(args)
            report, daemon = await run_embedded(
                config, clients=args.clients, commands=args.commands,
                seed=args.seed, verify=args.verify,
            )
        out = report.as_dict()
        if args.json:
            print(json.dumps(out, indent=2, sort_keys=True))
        else:
            print(f"{report.clients} clients x {args.commands} commands: "
                  f"{report.commands} sent, {report.ok} ok, "
                  f"{report.error_total} errors, {report.events} events, "
                  f"{report.commands_per_s:.0f} cmd/s")
            if report.errors:
                print(f"errors by code: {report.errors}")
            if daemon is not None:
                stats = daemon.stats()
                print(f"daemon: admitted={stats['admitted']} "
                      f"absorbed={stats['absorbed']} cuts={stats['cuts']} "
                      f"rounds={stats['rounds']} "
                      f"p99 staleness {stats['p99_ticks']:.0f} ticks")
        if report.verify is not None:
            status = "ok" if report.verify["ok"] else "MISMATCH"
            print(f"determinism gate: {status}  live "
                  f"{report.verify['live_ledger_digest'][:16]}  replay "
                  f"{report.verify['replay_ledger_digest'][:16]}")
            if not report.verify["ok"]:
                return 1
        return 0

    return asyncio.run(_run())


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    from repro.graphs import random_weighted_graph
    from repro.lowerbound import run_lower_bound_experiment

    rng = np.random.default_rng(args.seed)
    g = random_weighted_graph(args.n, args.m, rng)
    meter = run_lower_bound_experiment(
        g, k=args.k, delta=args.delta, rng=args.seed, pairs=args.pairs
    )
    print(meter.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.cclique.engines import ENGINES
    from repro.sim.executor import backend_names

    p = argparse.ArgumentParser(
        prog="repro",
        description="Batch-dynamic exact MST for cluster computing "
        "(Gilbert & Li, SPAA 2020 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a churn stream and print rounds")
    demo.add_argument("--n", type=int, default=200)
    demo.add_argument("--m", type=int, default=600)
    demo.add_argument("--k", type=int, default=8)
    demo.add_argument("--batches", type=int, default=5)
    demo.add_argument("--batch-size", type=int, default=8)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--input", help="edge-list file instead of a random graph")
    demo.add_argument("--init", choices=["distributed", "free"], default="distributed")
    demo.add_argument("--engine", default="sample_gather",
                      choices=sorted(ENGINES))
    demo.add_argument("--backend", default=None, metavar="NAME",
                      choices=backend_names(),
                      help="execution backend: reference or inproc-columnar "
                           "(default: ambient REPRO_BACKEND)")
    demo.set_defaults(fn=_cmd_demo)

    verify = sub.add_parser("verify", help="randomized self-check vs the oracle")
    verify.add_argument("--trials", type=int, default=5)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--engine", default="sample_gather",
                        choices=sorted(ENGINES))
    verify.set_defaults(fn=_cmd_verify)

    replay = sub.add_parser("replay", help="replay a JSON update stream")
    replay.add_argument("stream", help="stream file from repro.graphs.io.write_stream")
    replay.add_argument("--k", type=int, default=8)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--init", choices=["distributed", "free"], default="free")
    replay.set_defaults(fn=_cmd_replay)

    trace = sub.add_parser(
        "trace", help="record a named scenario as a structured JSONL trace"
    )
    trace.add_argument("scenario",
                       help="scenario name (see repro.trace.scenarios.SCENARIOS)")
    trace.add_argument("-o", "--out", default=None,
                       help="output path (default <scenario>.trace.jsonl)")
    trace.add_argument("--engine", default="sample_gather",
                       choices=sorted(ENGINES))
    trace.add_argument("--backend", default=None, metavar="NAME",
                       choices=backend_names(),
                       help="execution backend: reference or inproc-columnar")
    trace.add_argument("--perturb-batch", type=int, default=None,
                       help="charge one extra round before this batch index "
                            "(seeded fault for trace-diff demos)")
    trace.add_argument("--serve-metrics", type=int, default=None, const=0,
                       nargs="?", metavar="PORT",
                       help="serve live /metrics and the dashboard while the "
                            "run executes (default port: auto)")
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser(
        "report", help="per-phase/per-machine metrics report from a trace"
    )
    report.add_argument("trace", help="JSONL trace from 'repro trace'")
    fmt = report.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable JSON")
    fmt.add_argument("--prometheus", action="store_true",
                     help="Prometheus text exposition")
    report.add_argument("--envelope", type=int, default=None,
                        help="rounds allowed per ceil(batch/capacity) unit "
                             "(default: repro.trace.budgets.DEFAULT_ENVELOPE)")
    report.set_defaults(fn=_cmd_report)

    tdiff = sub.add_parser(
        "trace-diff",
        help="locate the first divergent charge between two traces",
    )
    tdiff.add_argument("a")
    tdiff.add_argument("b")
    tdiff.add_argument("--context", type=int, default=3,
                       help="events of context to print around the divergence")
    tdiff.set_defaults(fn=_cmd_trace_diff)

    chaos = sub.add_parser(
        "chaos",
        help="run a scenario under a seeded fault plan, checked per batch",
    )
    chaos.add_argument("scenario",
                       help="scenario name (see repro.trace.scenarios.SCENARIOS)")
    chaos.add_argument("--drop", type=float, default=0.0,
                       help="per-message drop probability in [0,1)")
    chaos.add_argument("--dup", type=float, default=0.0,
                       help="per-message duplication probability in [0,1)")
    chaos.add_argument("--reorder", type=float, default=0.0,
                       help="within-round reorder probability in [0,1)")
    chaos.add_argument("--crashes", default=None,
                       help="crash schedule 'batch:machine[:superstep],...'")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault injector's generator")
    chaos.add_argument("--plan", default=None,
                       help="JSON fault-plan file (overrides the flags above)")
    chaos.add_argument("--checkpoint-every", type=int, default=2,
                       help="checkpoint period in batches (default 2)")
    chaos.add_argument("--engine", default="sample_gather",
                       choices=sorted(ENGINES))
    chaos.add_argument("--backend", default=None, metavar="NAME",
                       choices=backend_names(),
                       help="execution backend: reference or inproc-columnar")
    chaos.add_argument("-o", "--out", default=None,
                       help="record the run (incl. fault/recovery events) "
                            "to this JSONL trace")
    chaos.add_argument("--serve-metrics", type=int, default=None, const=0,
                       nargs="?", metavar="PORT",
                       help="serve live /metrics and the dashboard while the "
                            "run executes (default port: auto)")
    chaos.set_defaults(fn=_cmd_chaos)

    watch = sub.add_parser(
        "watch",
        help="loop a scenario with the live dashboard/metrics server up",
    )
    watch.add_argument("scenario",
                       help="scenario name (see repro.trace.scenarios.SCENARIOS)")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=0,
                       help="HTTP port (default: pick a free one)")
    watch.add_argument("--loops", type=int, default=0,
                       help="runs of the scenario (0 = until interrupted)")
    watch.add_argument("--engine", default="sample_gather",
                       choices=sorted(ENGINES))
    watch.add_argument("--backend", default=None, metavar="NAME",
                       choices=backend_names(),
                       help="execution backend: reference or inproc-columnar")
    watch.add_argument("--envelope", type=int, default=None,
                       help="rounds allowed per ceil(batch/capacity) unit "
                            "(default: repro.trace.budgets.DEFAULT_ENVELOPE)")
    watch.set_defaults(fn=_cmd_watch)

    stream = sub.add_parser(
        "stream",
        help="replay a named arrival stream through the admission "
             "coalescer + batch scheduler (repro.stream)",
    )
    stream.add_argument("shape",
                        help="stream shape (see repro.stream.shapes.SHAPES): "
                             "uniform, sliding-window, flash-crowd, adversarial")
    stream.add_argument("--no-coalesce", action="store_true",
                        help="ship every admitted update (the uncoalesced "
                             "baseline)")
    stream.add_argument("--k", type=int, default=8)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--ticks", type=int, default=24,
                        help="arrival horizon in ticks")
    stream.add_argument("--rate", type=int, default=8,
                        help="arrivals per tick")
    stream.add_argument("--init", choices=["distributed", "free"],
                        default="free")
    stream.add_argument("--serve-metrics", type=int, default=None, const=0,
                        nargs="?", metavar="PORT",
                        help="serve live /metrics and the dashboard while "
                             "the stream runs (default port: auto)")
    stream.set_defaults(fn=_cmd_stream)

    def _serve_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--k", type=int, default=8)
        sp.add_argument("--n", type=int, default=64)
        sp.add_argument("--m", type=int, default=128)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--init", choices=["distributed", "free"],
                        default="free")
        sp.add_argument("--backend", default=None, metavar="NAME",
                        choices=backend_names(),
                        help="execution backend: reference or inproc-columnar "
                             "(default: REPRO_BACKEND)")
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=int, default=7787,
                        help="TCP port (0 = pick a free one)")
        sp.add_argument("--rate-limit", type=float, default=0.0,
                        help="per-client mutations/s (0 = unlimited)")
        sp.add_argument("--rate-burst", type=int, default=64)

    serve = sub.add_parser(
        "serve",
        help="run the always-on MST update daemon (repro.serve; "
             "line-delimited JSON over TCP)",
    )
    _serve_args(serve)
    serve.add_argument("--serve-metrics", type=int, default=None, const=0,
                       nargs="?", metavar="PORT",
                       help="serve live /metrics and the dashboard "
                            "(default port: auto)")
    serve.set_defaults(fn=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a daemon with concurrent simulated update streams",
    )
    _serve_args(loadgen)
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="aim at a live daemon instead of an embedded "
                              "one")
    loadgen.add_argument("--clients", type=int, default=100)
    loadgen.add_argument("--commands", type=int, default=10,
                         help="commands per client")
    loadgen.add_argument("--verify", action="store_true",
                         help="embedded only: drain and run the "
                              "determinism gate (exit 1 on mismatch)")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    loadgen.set_defaults(fn=_cmd_loadgen)

    lb = sub.add_parser("lowerbound", help="run the Theorem 7.1 adversary")
    lb.add_argument("--n", type=int, default=150)
    lb.add_argument("--m", type=int, default=3000)
    lb.add_argument("--k", type=int, default=4)
    lb.add_argument("--delta", type=float, default=1.0)
    lb.add_argument("--pairs", type=int, default=3)
    lb.add_argument("--seed", type=int, default=0)
    lb.set_defaults(fn=_cmd_lowerbound)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
