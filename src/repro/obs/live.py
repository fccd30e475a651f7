"""Live observability sessions: bus + registry + server as one unit.

:class:`ObsSession` bundles the three tentpole pieces —
:class:`~repro.obs.bus.TelemetryBus`,
:class:`~repro.obs.registry.MetricsRegistry`,
:class:`~repro.obs.server.ObsServer` — behind one context manager.  The
CLI surfaces build on it:

* ``repro watch <scenario>`` — :func:`watch_scenario`, which loops a
  named scenario under an attached :class:`~repro.obs.sink.BusSink` so
  the dashboard has something to show;
* ``--serve-metrics`` on ``repro trace`` / ``repro chaos`` / the bench
  harness — the session's :meth:`~ObsSession.sink` is teed alongside
  the normal file recorder.

Everything here is strictly additive: the simulator's charge path is
untouched, the file recorder writes the same bytes with or without a
session, and closing the session detaches cleanly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs.bus import TelemetryBus
from repro.obs.registry import MetricsRegistry
from repro.obs.server import ObsServer
from repro.obs.sink import BusSink


class ObsSession:
    """One live telemetry stack: bus, registry and HTTP server.

    ``serve=False`` skips the HTTP server (bus + registry only, e.g. for
    tests or in-process consumers).  ``port=0`` binds a free port; read
    the real one from :attr:`url`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: Optional[int] = None,
        envelope: Optional[int] = None,
        serve: bool = True,
    ) -> None:
        self.bus = (
            TelemetryBus(capacity) if capacity is not None else TelemetryBus()
        )
        self.registry = MetricsRegistry(self.bus, envelope=envelope)
        self.server: Optional[ObsServer] = (
            ObsServer(self.registry, host=host, port=port) if serve else None
        )
        self._started = False

    # ------------------------------------------------------------------
    @property
    def url(self) -> Optional[str]:
        return self.server.url if self.server is not None else None

    def sink(self, meta: Optional[Dict[str, Any]] = None) -> BusSink:
        """A fresh :class:`BusSink` publishing onto this session's bus."""
        return BusSink(self.bus, meta=meta)

    def start(self) -> "ObsSession":
        if self._started:
            return self
        if self.server is not None:
            self.server.start()
        self._started = True
        return self

    def close(self) -> None:
        if not self._started:
            return
        if self.server is not None:
            self.server.close()
        self.registry.close()
        self._started = False

    def __enter__(self) -> "ObsSession":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


def watch_scenario(
    scenario_name: str,
    host: str = "127.0.0.1",
    port: int = 0,
    loops: int = 0,
    engine: str = "sample_gather",
    init: Optional[str] = None,
    backend: Optional[str] = None,
    envelope: Optional[int] = None,
    on_ready: Optional[Callable[[ObsSession], None]] = None,
    on_loop: Optional[Callable[[int, Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Serve live telemetry while looping ``scenario_name``.

    The one-command demo behind ``repro watch``: starts an
    :class:`ObsSession`, then runs the named scenario with a
    :class:`BusSink` attached, ``loops`` times (``0`` = until
    interrupted — the live-dashboard default).  ``on_ready`` fires once
    the server is up (the CLI prints the URL); ``on_loop`` fires after
    each completed run with its summary.

    Returns a final report: the server URL, loops completed, the last
    run summary, and the registry snapshot at shutdown.
    """
    from repro.trace.scenarios import get_scenario, run_traced

    scenario = get_scenario(scenario_name)
    completed = 0
    last_summary: Optional[Dict[str, Any]] = None
    with ObsSession(host=host, port=port, envelope=envelope) as session:
        if on_ready is not None:
            on_ready(session)
        try:
            while loops == 0 or completed < loops:
                telemetry = session.sink(meta={"scenario": scenario.name})
                try:
                    last_summary = run_traced(
                        scenario, sink=None, engine=engine, init=init,
                        backend=backend, telemetry=telemetry,
                    )
                finally:
                    telemetry.close()
                completed += 1
                if on_loop is not None:
                    on_loop(completed, last_summary)
        except KeyboardInterrupt:
            pass
        snapshot = session.registry.snapshot()
        url = session.url
    return {
        "scenario": scenario.name,
        "url": url,
        "loops": completed,
        "last_run": last_summary,
        "snapshot": snapshot,
    }
