"""The always-on MST update daemon (ROADMAP item 1).

``repro.serve`` wraps the batch-dynamic core in a long-lived asyncio
service: clients connect over TCP (or an in-process duplex transport),
stream edge insert/delete commands as line-delimited JSON, subscribe to
MSF-change events, and answer point queries ("in the forest?",
"component of v?", "forest weight?") from replicated post-batch state
without spending a single communication round.

The architecture follows a strict parse → validate → reduce → publish
loop so the deterministic, ledger-charged core stays single-threaded
and pure while the edges of the system go concurrent:

* :mod:`repro.serve.parser` / :mod:`repro.serve.types` — framing and
  typed command/response objects; hostile bytes become typed error
  responses, never exceptions in the server;
* :mod:`repro.serve.reducer` — the **only** code allowed to touch the
  ledger-charged :class:`~repro.core.api.DynamicMST`.  It drives a
  coalescing :class:`~repro.stream.ingest.StreamIngestor` and stamps
  every admitted command with a logical tick such that an offline
  replay of the admitted sequence through a fresh ingestor reproduces
  the live ledger byte for byte;
* :mod:`repro.serve.server` — the asyncio front end: per-client rate
  limits, bounded queues with backpressure, slow-consumer eviction and
  the MSF-change subscription channel;
* :mod:`repro.serve.loadgen` — a load-generator client that simulates
  thousands of concurrent update streams.

    >>> import asyncio
    >>> from repro.serve import MSTDaemon, ServeConfig
    >>> async def demo():
    ...     daemon = MSTDaemon(ServeConfig(k=4, n=16, m=24))
    ...     await daemon.start()
    ...     client = daemon.connect_memory()
    ...     reply = await client.request("add", u=0, v=5, w=0.25)
    ...     await daemon.shutdown()
    ...     return reply["ok"]
    >>> asyncio.run(demo())
    True
"""

from repro.serve.config import ServeConfig
from repro.serve.parser import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_command,
    encode_error,
    encode_event,
    encode_result,
)
from repro.serve.reducer import (
    AdmissionError,
    MsfChange,
    ServeReducer,
    offline_replay,
    verify_determinism,
)
from repro.serve.server import MSTDaemon, TokenBucket
from repro.serve.types import (
    ERROR_CODES,
    PROTOCOL_SCHEMA,
    Command,
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
from repro.serve.view import ForestView

__all__ = [
    "ServeConfig",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_command",
    "encode_error",
    "encode_event",
    "encode_result",
    "AdmissionError",
    "MsfChange",
    "ServeReducer",
    "offline_replay",
    "verify_determinism",
    "MSTDaemon",
    "TokenBucket",
    "ERROR_CODES",
    "PROTOCOL_SCHEMA",
    "Command",
    "ErrorResponse",
    "EventMessage",
    "Hello",
    "Mutate",
    "OkResponse",
    "Ping",
    "Query",
    "Subscribe",
    "Unsubscribe",
    "ForestView",
]
