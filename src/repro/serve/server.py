"""The asyncio front end: sessions, rate limits, backpressure, fan-out.

:class:`MSTDaemon` is the parse → validate → reduce → publish loop made
concurrent at the edges only:

* every connection gets a :class:`ClientSession` — a reader task that
  frames bytes, decodes commands, and answers everything but mutations
  directly from the replicated view (zero rounds), plus a writer task
  draining a **bounded** outbox to the transport;
* mutations pass a per-client :class:`TokenBucket`, then block on the
  **bounded** admission queue — when the reducer falls behind, readers
  stop reading and the transport's own buffers push back on clients
  (end-to-end backpressure, no unbounded queue anywhere);
* one reduce task drains the admission queue in arrival order into
  :class:`~repro.serve.reducer.ServeReducer` — the single serialisation
  point, so the charged core never sees concurrency and the admitted
  log is the total order the determinism gate replays;
* published :class:`~repro.serve.reducer.MsfChange` views broadcast to
  subscribers via ``put_nowait``: a subscriber that stops reading fills
  its outbox and is **evicted** rather than ever stalling the reducer.

Wall-clock enters exactly twice — the rate-limiter clock (injectable,
so tests pin it) and telemetry timestamps — and neither feeds the
reducer, the stamped ticks, or anything else the replay compares.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Set

from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.parser import (
    FrameSplitter,
    ProtocolError,
    decode_command,
    encode,
    encode_event,
)
from repro.serve.reducer import AdmissionError, MsfChange, ServeReducer
from repro.serve.transport import MemoryTransport, StreamTransport
from repro.serve.types import (
    Bye,
    ErrorResponse,
    EventMessage,
    Hello,
    Mutate,
    OkResponse,
    Ping,
    Query,
    Subscribe,
    Unsubscribe,
)


class TokenBucket:
    """Classic token bucket; the clock is injected so tests are exact."""

    def __init__(self, rate: float, burst: int, clock: Callable[[], float]) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self.last = clock()

    def take(self, n: float = 1.0) -> bool:
        t = self.clock()
        self.tokens = min(self.burst, self.tokens + (t - self.last) * self.rate)
        self.last = t
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class ClientSession:
    """One connection: a reader task, a writer task, a bounded outbox."""

    def __init__(self, daemon: "MSTDaemon", transport, name: str) -> None:
        self.daemon = daemon
        self.transport = transport
        self.name = name
        cfg = daemon.config
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=cfg.event_queue)
        self.subscribed = False
        self.closing = False
        self.evicted: Optional[str] = None
        self.rate_strikes = 0
        self.bucket = (
            TokenBucket(cfg.rate_limit, cfg.rate_burst, daemon.clock)
            if cfg.rate_limit > 0
            else None
        )
        self._reader_task: Optional[asyncio.Task] = None
        self._writer_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------
    def start(self) -> None:
        self._reader_task = asyncio.ensure_future(self._reader())
        self._writer_task = asyncio.ensure_future(self._writer())

    async def wait_closed(self) -> None:
        for task in (self._reader_task, self._writer_task):
            if task is not None:
                try:
                    await task
                except asyncio.CancelledError:
                    pass

    def kick(self, reason: Optional[str] = None) -> None:
        """Tear the session down without awaiting (safe from any task)."""
        if self.closing:
            return
        self.closing = True
        self.evicted = reason
        self.transport.close()
        for task in (self._reader_task, self._writer_task):
            if task is not None and not task.done():
                task.cancel()
        self.daemon._session_closed(self, reason)

    # -- writer -------------------------------------------------------
    async def _writer(self) -> None:
        try:
            while True:
                data = await self.outbox.get()
                if data is None:
                    break
                self.transport.write(data)
                await self.transport.drain()
        except asyncio.CancelledError:
            pass
        finally:
            self.transport.close()

    async def _respond(self, msg) -> None:
        """Queue a response to the client's own command (backpressure:
        a full outbox blocks this session's reader, nobody else)."""
        if not self.closing:
            await self.outbox.put(encode(msg))

    def push_event(self, data: bytes) -> bool:
        """Broadcast delivery; never blocks the caller (the reduce loop)."""
        if self.closing:
            return False
        try:
            self.outbox.put_nowait(data)
            return True
        except asyncio.QueueFull:
            self.daemon.evict(self, "slow-consumer")
            return False

    # -- reader -------------------------------------------------------
    async def _reader(self) -> None:
        splitter = FrameSplitter(self.daemon.config.max_frame_bytes)
        try:
            while not self.closing:
                chunk = await self.transport.read(4096)
                if not chunk:
                    for frame in splitter.eof():
                        await self._handle_frame(frame)
                    break
                for frame in splitter.feed(chunk):
                    await self._handle_frame(frame)
                    if self.closing:
                        break
        except asyncio.CancelledError:
            pass
        finally:
            if not self.closing:
                self.closing = True
                self.daemon._session_closed(self, None)
            try:
                self.outbox.put_nowait(None)
            except asyncio.QueueFull:
                # Writer is stuck on a full pipe; it gets cancelled on kick.
                pass

    async def _handle_frame(self, frame) -> None:
        try:
            cmd = decode_command(frame)
        except ProtocolError as exc:
            self.daemon.emit(
                "serve_cmd", op="?", status="error", client=self.name, code=exc.code
            )
            await self._respond(exc.response())
            return
        await self._handle(cmd)

    async def _handle(self, cmd) -> None:
        daemon = self.daemon
        if isinstance(cmd, Mutate):
            await self._handle_mutation(cmd)
            return
        if isinstance(cmd, Hello):
            result = dict(daemon.config.hello_payload())
            result["version"] = daemon.reducer.view.version
            await self._ok(cmd, result)
        elif isinstance(cmd, Ping):
            await self._ok(
                cmd,
                {
                    "pong": True,
                    "tick": daemon.reducer.ingestor.now,
                    "version": daemon.reducer.view.version,
                },
            )
        elif isinstance(cmd, Query):
            await self._handle_query(cmd)
        elif isinstance(cmd, Subscribe):
            self.subscribed = True
            await self._ok(
                cmd,
                {"subscribed": True, "version": daemon.reducer.view.version},
            )
        elif isinstance(cmd, Unsubscribe):
            self.subscribed = False
            await self._ok(cmd, {"subscribed": False})
        elif isinstance(cmd, Bye):
            await self._ok(cmd, {"bye": True})
            # Let the writer flush the farewell, then close.
            self.closing = True
            await self.outbox.put(None)
            daemon._session_closed(self, None)

    async def _ok(self, cmd, result: Dict[str, object]) -> None:
        self.daemon.emit("serve_cmd", op=_op_name(cmd), status="ok", client=self.name)
        await self._respond(OkResponse(id=cmd.id, result=result))

    async def _err(self, cmd, code: str, message: str) -> None:
        self.daemon.emit(
            "serve_cmd", op=_op_name(cmd), status="error", client=self.name, code=code
        )
        await self._respond(ErrorResponse(id=cmd.id, code=code, message=message))

    async def _handle_query(self, cmd: Query) -> None:
        view = self.daemon.reducer.view
        if cmd.q == "in-forest":
            if not (view.has_vertex(cmd.u) and view.has_vertex(cmd.v)):
                await self._err(cmd, "unknown-vertex", "query endpoint unknown")
                return
            await self._ok(
                cmd,
                {
                    "in_forest": view.in_forest(cmd.u, cmd.v),
                    "connected": view.same_component(cmd.u, cmd.v),
                    "version": view.version,
                },
            )
        elif cmd.q == "component":
            if not view.has_vertex(cmd.v):
                await self._err(cmd, "unknown-vertex", f"no vertex {cmd.v}")
                return
            await self._ok(
                cmd,
                {"component": view.component_of(cmd.v), "version": view.version},
            )
        elif cmd.q == "weight":
            await self._ok(cmd, {"weight": view.weight, "version": view.version})
        elif cmd.q == "components":
            await self._ok(
                cmd,
                {"components": view.n_components, "version": view.version},
            )
        else:  # stats
            await self._ok(cmd, self.daemon.stats())

    async def _handle_mutation(self, cmd: Mutate) -> None:
        daemon = self.daemon
        if daemon.draining:
            await self._err(cmd, "shutting-down", "daemon is draining")
            return
        if self.bucket is not None and not self.bucket.take():
            self.rate_strikes += 1
            await self._err(cmd, "rate-limited", "token bucket empty")
            evict_after = daemon.config.rate_evict_after
            if evict_after and self.rate_strikes >= evict_after:
                daemon.evict(self, "rate-limit")
            return
        self.rate_strikes = 0
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        # Bounded queue: this await is the backpressure point.
        await daemon.admission.put((self, cmd, fut))
        try:
            admitted = await fut
        except AdmissionError as exc:
            await self._err(cmd, exc.code, exc.message)
            return
        except asyncio.CancelledError:
            raise
        self.daemon.emit(
            "serve_cmd", op=_op_name(cmd), status="ok", client=self.name
        )
        await self._respond(
            OkResponse(
                id=cmd.id,
                result={
                    "seq": admitted.seq,
                    "tick": admitted.tick,
                    "version": daemon.reducer.view.version,
                },
            )
        )


def _op_name(cmd) -> str:
    if isinstance(cmd, Mutate):
        return cmd.update.kind
    if isinstance(cmd, Query):
        return f"query:{cmd.q}"
    return type(cmd).__name__.lower()


class MSTDaemon:
    """The daemon: one reducer, one admission queue, many sessions."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        telemetry=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.telemetry = telemetry
        self.clock = clock if clock is not None else _loop_clock
        self.reducer = ServeReducer(self.config)
        if telemetry is not None:
            self.reducer.dm.attach_trace(telemetry)
        self.admission: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.admission_queue
        )
        self.sessions: Set[ClientSession] = set()
        self.draining = False
        self.evictions: Dict[str, int] = {}
        self.sessions_served = 0
        self._reduce_task: Optional[asyncio.Task] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._next_client = 0

    # -- telemetry ----------------------------------------------------
    def emit(self, etype: str, **fields: object) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(etype, **fields)

    # -- lifecycle ----------------------------------------------------
    async def start(self) -> None:
        """Start the reduce loop (in-process serving; no sockets)."""
        if self._reduce_task is None:
            self._reduce_task = asyncio.ensure_future(self._reduce_loop())
            cfg = self.config
            self.emit(
                "serve_start",
                k=cfg.k,
                host=cfg.host,
                port=cfg.port,
                backend=cfg.resolved_backend(),
                n=cfg.n,
                m=cfg.m,
            )

    async def start_tcp(self) -> int:
        """Additionally listen on ``config.host:config.port``; returns
        the bound port (useful with port 0)."""
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._on_tcp, self.config.host, self.config.port
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def _on_tcp(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        session = self._attach(StreamTransport(reader, writer))
        await session.wait_closed()

    def connect_memory(self, queue_chunks: int = 16) -> ServeClient:
        """A new in-process client wired straight into a session."""
        server_end, client_end = MemoryTransport.pair(queue_chunks)
        self._attach(server_end)
        return ServeClient(client_end, max_frame=self.config.max_frame_bytes)

    def _attach(self, transport) -> ClientSession:
        name = f"c{self._next_client}"
        self._next_client += 1
        session = ClientSession(self, transport, name)
        self.sessions.add(session)
        self.sessions_served += 1
        self.emit(
            "serve_conn", action="connect", client=name, sessions=len(self.sessions)
        )
        session.start()
        return session

    def _session_closed(self, session: ClientSession, reason: Optional[str]) -> None:
        if session in self.sessions:
            self.sessions.discard(session)
            fields: Dict[str, object] = {
                "action": "evict" if reason else "close",
                "client": session.name,
                "sessions": len(self.sessions),
            }
            if reason:
                fields["reason"] = reason
            self.emit("serve_conn", **fields)

    def evict(self, session: ClientSession, reason: str) -> None:
        self.evictions[reason] = self.evictions.get(reason, 0) + 1
        session.kick(reason)

    # -- the single serialisation point -------------------------------
    async def _reduce_loop(self) -> None:
        while True:
            item = await self.admission.get()
            try:
                if item is None:
                    return
                session, cmd, fut = item
                try:
                    admitted = self.reducer.submit(cmd.update)
                except AdmissionError as exc:
                    self.emit(
                        "serve_cmd",
                        op=cmd.update.kind,
                        status="error",
                        client=session.name,
                        code=exc.code,
                    )
                    if not fut.done():
                        fut.set_exception(exc)
                    continue
                if not fut.done():
                    fut.set_result(admitted)
                for change in admitted.changes:
                    self._broadcast(change)
                # Queue.get returns without yielding while items are ready;
                # without this, a deep backlog lets the reduce loop publish
                # unboundedly before any subscriber's tasks run again.
                await asyncio.sleep(0)
            finally:
                self.admission.task_done()

    def _broadcast(self, change: MsfChange) -> None:
        subscribers = [s for s in self.sessions if s.subscribed]
        if not subscribers:
            return
        data = encode_event(EventMessage("msf_change", change.as_fields()))
        for session in subscribers:
            session.push_event(data)

    # -- shutdown + the determinism gate ------------------------------
    async def shutdown(self, drain: bool = True) -> List[MsfChange]:
        """Stop accepting mutations, flush the buffer, close everything."""
        self.draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        changes: List[MsfChange] = []
        if self._reduce_task is not None:
            await self.admission.join()
            await self.admission.put(None)
            await self._reduce_task
            self._reduce_task = None
        # A session that passed the draining check before we set it may
        # have queued behind the sentinel; reject, never strand its future.
        while not self.admission.empty():
            item = self.admission.get_nowait()
            if item is not None:
                _session, _cmd, fut = item
                if not fut.done():
                    fut.set_exception(
                        AdmissionError("shutting-down", "daemon is draining")
                    )
        if drain:
            changes = self.reducer.drain()
            for change in changes:
                self._broadcast(change)
        self.emit(
            "serve_stop",
            sessions=self.sessions_served,
            admitted=self.reducer.admitted,
            rejected=self.reducer.rejected,
            cuts=self.reducer.ingestor.cuts,
            batches=self.reducer.ingestor.batches,
            evicted=sum(self.evictions.values()),
            digest=self.reducer.ledger_digest(),
        )
        for session in list(self.sessions):
            session.kick()
        if self.telemetry is not None:
            self.reducer.dm.detach_trace()
        return changes

    def stats(self) -> Dict[str, object]:
        out = self.reducer.stats()
        out.update(
            sessions=len(self.sessions),
            sessions_served=self.sessions_served,
            evictions=dict(self.evictions),
            draining=self.draining,
            backend=self.config.resolved_backend(),
        )
        return out


def _loop_clock() -> float:
    return asyncio.get_running_loop().time()
