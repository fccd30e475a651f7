"""The load generator: thousands of concurrent update streams.

Each simulated client owns a *disjoint* slice of the non-initial edge
pairs (round-robin by client index), tracks its own effective edge
state, and alternates inserts and deletes over its slice — so every
command is valid at admission no matter how the scheduler interleaves
clients, and the daemon's final graph is independent of the
interleaving.  A seeded ``random.Random`` per client makes the offered
traffic reproducible; wall-clock is read only to report throughput.

Two ways to aim it:

* **embedded** — construct the daemon in-process and drive it over
  memory transports; with ``verify=True`` the run ends by draining the
  daemon and running the determinism gate
  (:func:`repro.serve.reducer.verify_determinism`);
* **TCP** — point it at a live ``repro serve`` daemon; the handshake's
  ``hello`` payload carries the graph recipe, from which the generator
  reconstructs the initial edge set it must avoid.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig

Pair = Tuple[int, int]


@dataclass
class LoadgenReport:
    """What one load-generation run offered and observed."""

    clients: int
    commands: int          # commands sent (all ops)
    mutations: int         # add/delete commands sent
    ok: int
    errors: Dict[str, int] = field(default_factory=dict)
    events: int = 0
    wall_s: float = 0.0
    verify: Optional[Dict[str, object]] = None

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    @property
    def commands_per_s(self) -> float:
        return self.commands / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        out = {
            "clients": self.clients,
            "commands": self.commands,
            "mutations": self.mutations,
            "ok": self.ok,
            "errors": dict(self.errors),
            "error_total": self.error_total,
            "events": self.events,
            "wall_s": self.wall_s,
            "commands_per_s": self.commands_per_s,
        }
        if self.verify is not None:
            out["verify"] = self.verify
        return out


def initial_pairs(config: ServeConfig) -> Set[Pair]:
    """The seeded initial graph's edge pairs (what clients must avoid)."""
    g = config.initial_graph()
    return {(e.u, e.v) for e in g.edges()}


def client_pairs(
    n: int, taken: Set[Pair], clients: int, index: int
) -> List[Pair]:
    """Client ``index``'s disjoint slice of the free edge pairs."""
    out: List[Pair] = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in taken:
                continue
            if i % clients == index:
                out.append((u, v))
            i += 1
    return out


async def _run_mutator(
    index: int,
    connect: Callable[[], Awaitable[ServeClient]],
    pairs: List[Pair],
    commands: int,
    seed: int,
    ping_every: int,
    report: LoadgenReport,
) -> None:
    rng = random.Random(seed * 7919 + index)
    client = await connect()
    present: Set[Pair] = set()
    try:
        for i in range(commands):
            if ping_every and i and i % ping_every == 0:
                resp = await client.request("ping")
                _tally(report, resp)
                continue
            pair = pairs[rng.randrange(len(pairs))]
            if pair in present:
                resp = await client.request("delete", u=pair[0], v=pair[1])
                present.discard(pair)
            else:
                resp = await client.request(
                    "add", u=pair[0], v=pair[1], w=rng.random()
                )
                present.add(pair)
            report.mutations += 1
            _tally(report, resp)
        resp = await client.request("bye")
        _tally(report, resp)
    finally:
        client.close()


async def _run_listener(
    connect: Callable[[], Awaitable[ServeClient]],
    stop: asyncio.Event,
    report: LoadgenReport,
) -> None:
    """A pub-sub consumer: subscribes and drains the event channel until
    the mutating cohort is done (so it never trips slow-consumer
    eviction — that path is exercised deliberately in the test suite)."""
    client = await connect()
    try:
        resp = await client.request("subscribe")
        _tally(report, resp)
        while True:
            reader = asyncio.ensure_future(client.read_message())
            waiter = asyncio.ensure_future(stop.wait())
            done, _ = await asyncio.wait(
                {reader, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
            if reader in done:
                waiter.cancel()
                msg = reader.result()
                if msg is None:
                    return
                if "event" in msg:
                    report.events += 1
                continue
            reader.cancel()
            try:
                await reader
            except asyncio.CancelledError:
                pass
            break
        resp = await client.request("bye")
        _tally(report, resp)
    finally:
        client.close()


def _tally(report: LoadgenReport, resp: Optional[Dict[str, object]]) -> None:
    report.commands += 1
    if resp is None:
        report.errors["no-response"] = report.errors.get("no-response", 0) + 1
    elif resp.get("ok"):
        report.ok += 1
    else:
        code = str(resp.get("error", {}).get("code", "unknown"))
        report.errors[code] = report.errors.get(code, 0) + 1


async def run_loadgen(
    connect: Callable[[], Awaitable[ServeClient]],
    config: ServeConfig,
    clients: int,
    commands: int,
    seed: int = 0,
    subscribe_every: int = 16,
    ping_every: int = 8,
) -> LoadgenReport:
    """Drive ``clients`` concurrent streams of ``commands`` each."""
    if clients <= 0 or commands <= 0:
        raise ValueError("clients and commands must be positive")
    taken = initial_pairs(config)
    free = config.n * (config.n - 1) // 2 - len(taken)
    if free < clients:
        raise ValueError(
            f"graph has {free} free pairs but {clients} clients need one each"
        )
    report = LoadgenReport(clients=clients, commands=0, mutations=0, ok=0)
    stop = asyncio.Event()
    roles = [
        "listener" if subscribe_every > 0 and clients > 1 and index % subscribe_every == 1
        else "mutator"
        for index in range(clients)
    ]
    mutators = [i for i, r in enumerate(roles) if r == "mutator"]
    t0 = time.perf_counter()

    async def mutate_cohort() -> None:
        try:
            await asyncio.gather(
                *(
                    _run_mutator(
                        index,
                        connect,
                        client_pairs(config.n, taken, len(mutators), slot),
                        commands,
                        seed,
                        ping_every,
                        report,
                    )
                    for slot, index in enumerate(mutators)
                )
            )
        finally:
            stop.set()

    await asyncio.gather(
        mutate_cohort(),
        *(
            _run_listener(connect, stop, report)
            for index, role in enumerate(roles)
            if role == "listener"
        ),
    )
    report.wall_s = time.perf_counter() - t0
    return report


async def run_embedded(
    config: ServeConfig,
    clients: int,
    commands: int,
    seed: int = 0,
    verify: bool = True,
    telemetry=None,
    subscribe_every: int = 16,
    ping_every: int = 8,
):
    """Daemon + loadgen in one process; returns ``(report, daemon)``.

    The daemon is shut down (drained) before returning; with ``verify``
    the report carries the determinism gate's verdict.
    """
    from repro.serve.reducer import verify_determinism
    from repro.serve.server import MSTDaemon

    daemon = MSTDaemon(config, telemetry=telemetry)
    await daemon.start()

    async def connect() -> ServeClient:
        return daemon.connect_memory()

    report = await run_loadgen(
        connect, config, clients, commands, seed=seed,
        subscribe_every=subscribe_every, ping_every=ping_every,
    )
    await daemon.shutdown(drain=True)
    if verify:
        report.verify = verify_determinism(daemon.reducer)
    return report, daemon


async def run_tcp(
    host: str,
    port: int,
    clients: int,
    commands: int,
    seed: int = 0,
    subscribe_every: int = 16,
    ping_every: int = 8,
) -> LoadgenReport:
    """Aim at a live daemon; the hello payload supplies the graph recipe."""
    from repro.serve.client import connect_tcp

    probe = await connect_tcp(host, port)
    hello = await probe.request("hello")
    if hello is None or not hello.get("ok"):
        raise RuntimeError("daemon refused the hello handshake")
    result = hello["result"]
    config = ServeConfig(
        k=int(result["k"]),
        n=int(result["n"]),
        m=int(result["m"]),
        seed=int(result["seed"]),
    )
    await probe.request("bye")
    probe.close()

    async def connect() -> ServeClient:
        return await connect_tcp(host, port)

    return await run_loadgen(
        connect, config, clients, commands, seed=seed,
        subscribe_every=subscribe_every, ping_every=ping_every,
    )
