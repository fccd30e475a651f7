"""The load generator: one asyncio process, at most two connections.

Both loops speak ``repro-serve/1`` over TCP loopback and time every
request themselves.  The closed loop keeps a fixed window of requests in
flight; the open loop sends each request when it is due, whatever the
daemon is doing, and times it from that due time, so a stall in the
daemon is charged to every request it delays.  A request never answered
is timed up to the moment the loop gave up on it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

from inputs import READ, WRITE, Schedule

HOST = "127.0.0.1"
#: Flush the socket once this many bytes are queued in user space.
HIGH_WATER = 1 << 16


@dataclass
class LoadResult:
    """What the client saw.  Times are seconds; list index = request id."""

    sent: int = 0
    answered: int = 0
    errors: int = 0
    #: first send to last response
    wall_s: float = 0.0
    write_latency: List[float] = field(default_factory=list)
    read_latency: List[float] = field(default_factory=list)
    #: closed loop only: when each response arrived, from the first send
    acked_at: List[float] = field(default_factory=list)
    #: open loop only: how late the generator sent each request
    lateness: List[float] = field(default_factory=list)
    error_codes: List[str] = field(default_factory=list)

    @property
    def drained(self) -> bool:
        return self.answered == self.sent


async def _connect(port: int):
    return await asyncio.open_connection(HOST, port, limit=1 << 20)


async def _stop(tasks, writers) -> None:
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for writer in writers:
        writer.close()
        await writer.wait_closed()


def _record(result: LoadResult, line: bytes) -> Optional[int]:
    """Count one response; return its id."""
    obj = json.loads(line)
    result.answered += 1
    if not obj.get("ok"):
        result.errors += 1
        result.error_codes.append(str(obj.get("error", {}).get("code")))
    return obj.get("id")


async def closed_loop(port: int, frames: List[bytes], window: int, timeout: float) -> LoadResult:
    """Send ``frames`` on one connection with at most ``window`` in flight."""
    result = LoadResult()
    reader, writer = await _connect(port)
    sent_at = [0.0] * len(frames)
    done_at: List[Optional[float]] = [None] * len(frames)
    slots = asyncio.Semaphore(window)

    async def receive() -> None:
        for _ in range(len(frames)):
            line = await reader.readline()
            if not line:
                return
            now = perf_counter()
            done_at[_record(result, line)] = now
            slots.release()

    receiver = asyncio.create_task(receive())
    start = perf_counter()
    try:
        for i, data in enumerate(frames):
            await slots.acquire()
            sent_at[i] = perf_counter()
            writer.write(data)
            result.sent += 1
            if writer.transport.get_write_buffer_size() > HIGH_WATER:
                await writer.drain()
        await writer.drain()
        await asyncio.wait([receiver], timeout=timeout)
    finally:
        await _stop([receiver], [writer])
    gave_up = perf_counter()
    done = [gave_up if t is None else t for t in done_at]
    result.write_latency = [d - s for d, s in zip(done, sent_at)]
    result.acked_at = [d - start for d in done]
    result.wall_s = max(done, default=start) - start
    return result


async def open_loop(port: int, schedule: Schedule, drain_s: float) -> LoadResult:
    """Send every request of ``schedule`` at its due time; writes go on
    connection 0 and reads on connection 1.  Responses still missing
    ``drain_s`` after the last due time are given up on."""
    result = LoadResult()
    conns = [await _connect(port), await _connect(port)]
    due = [[0.0] * len(f) for f in schedule.frames]
    done_at: List[List[Optional[float]]] = [[None] * len(f) for f in schedule.frames]

    async def receive(conn: int) -> None:
        reader = conns[conn][0]
        for _ in range(len(schedule.frames[conn])):
            line = await reader.readline()
            if not line:
                return
            now = perf_counter()
            done_at[conn][_record(result, line)] = now

    receivers = [asyncio.create_task(receive(c)) for c in (WRITE, READ)]
    order = schedule.merged()
    start = perf_counter() + 0.05
    try:
        for t, conn, rid in order:
            target = start + t
            due[conn][rid] = target
            delay = target - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(perf_counter() - target)
            writer = conns[conn][1]
            writer.write(schedule.frames[conn][rid])
            result.sent += 1
            if writer.transport.get_write_buffer_size() > HIGH_WATER:
                await writer.drain()
        for _, writer in conns:
            await writer.drain()
        end = start + (order[-1][0] if order else 0.0)
        await asyncio.wait(receivers, timeout=max(end + drain_s - perf_counter(), 0.0))
    finally:
        await _stop(receivers, [writer for _, writer in conns])
    gave_up = perf_counter()
    done = [[gave_up if t is None else t for t in per_conn] for per_conn in done_at]
    result.write_latency = [d - s for d, s in zip(done[WRITE], due[WRITE])]
    result.read_latency = [d - s for d, s in zip(done[READ], due[READ])]
    result.wall_s = max((max(d, default=start) for d in done), default=start) - start
    return result
