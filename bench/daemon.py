"""One daemon for one repetition of a serve workload.

    python bench/daemon.py --n 1000 --m 3000 --k 8 --seed 0 [--trace]

Builds ``ServeConfig(n, m, k, seed)`` with every other field at its
default except the port (0, so the kernel picks a free one), listens on
loopback, and prints one JSON line ``{"ready": port}``.  It sets up
``spec.DAEMON_SETUPS`` times, shutting each daemon but the last straight
down, and times each set-up from ``ServeConfig`` construction to
listening.  A set-up takes 50-100 ms (the first, which also pays lazy
imports, about twice that), short enough for host noise to swing one
sample by a third, hence several.  The daemon then serves until a line
arrives on stdin (or stdin closes), drains, and prints one JSON line
with its stats, digests, ledger totals, peak RSS and, with ``--trace``,
the span totals of :mod:`spans`.  The offline replay is skipped: the
determinism gate is the test suite's job, and here it would double the
run time.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import resource
import sys
from time import perf_counter, process_time

import spec
from spans import Tracer


def _ledger(daemon) -> dict:
    ledger = daemon.reducer.dm.net.ledger
    return {"rounds": ledger.rounds, "messages": ledger.messages, "words": ledger.words}


async def serve(args: argparse.Namespace) -> dict:
    from repro.serve import MSTDaemon, ServeConfig

    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        region_wall, region_cpu = perf_counter(), process_time()
        setups = []
        for _ in range(spec.DAEMON_SETUPS):
            if setups:
                await daemon.shutdown()
            start = perf_counter()
            config = ServeConfig(n=args.n, m=args.m, k=args.k, seed=args.seed, port=0)
            daemon = MSTDaemon(config)
            port = await daemon.start_tcp()
            setups.append(perf_counter() - start)
        before = _ledger(daemon)
        print(json.dumps({"ready": port}), flush=True)

        await stdin.readline()
        await daemon.shutdown()
        wall = perf_counter() - region_wall
        cpu = process_time() - region_cpu
    after = _ledger(daemon)
    out = {
        "setup_s": setups,
        "stats": daemon.stats(),
        "ledger_digest": daemon.reducer.ledger_digest(),
        "forest_digest": daemon.reducer.forest_digest(),
        "ledger": {key: after[key] - before[key] for key in after},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": wall,
        "cpu_s": cpu,
    }
    if tracer is not None:
        out["spans"] = tracer.report(wall)
        out["span_total_s"] = tracer.total_s()
        out["missing"] = tracer.missing
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec.import_repro()
    print(json.dumps(asyncio.run(serve(args))), flush=True)


if __name__ == "__main__":
    main()
