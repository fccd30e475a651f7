"""repro.obs — live telemetry: bus, metrics registry, dashboard server.

The observability layer sits *beside* the simulator, never inside it:

* :mod:`~repro.obs.bus` — :class:`TelemetryBus`, a bounded in-process
  ring; slow subscribers drop (and count) events, never stall a run;
* :mod:`~repro.obs.sink` — :class:`BusSink`, the
  :class:`~repro.sim.metrics.TraceSink` that publishes schema-shaped
  events onto a bus, and :class:`TeeSink` to fan one ledger out to a
  file recorder *and* the bus;
* :mod:`~repro.obs.registry` — :class:`MetricsRegistry`, folding bus
  events into counters/gauges/histograms (throughput, skew, batch
  latency, theorem-budget headroom and chaos counters);
* :mod:`~repro.obs.prom` — the shared Prometheus text formatter;
* :mod:`~repro.obs.server` — :class:`ObsServer`, stdlib HTTP endpoints
  (``/metrics``, ``/healthz``, ``/snapshot``, ``/`` dashboard);
* :mod:`~repro.obs.live` — :class:`ObsSession` bundling the above, and
  :func:`watch_scenario`, the driver behind ``repro watch``.

Detached telemetry is free by construction: with no bus attached the
charge path pays the same single ``ledger.recorder`` attribute read it
always did, and attaching one never changes ledger digests or trace
file bytes (the equivalence tests pin this under ``REPRO_STRICT=1``).
"""

from repro.obs.bus import DEFAULT_CAPACITY, Subscription, TelemetryBus
from repro.obs.live import ObsSession, watch_scenario
from repro.obs.prom import (
    MetricFamily,
    Sample,
    escape_label_value,
    histogram_family,
    render_families,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.server import PROM_CONTENT_TYPE, ObsServer
from repro.obs.sink import BusSink, TeeSink

__all__ = [
    "DEFAULT_CAPACITY",
    "TelemetryBus",
    "Subscription",
    "BusSink",
    "TeeSink",
    "Histogram",
    "MetricsRegistry",
    "MetricFamily",
    "Sample",
    "escape_label_value",
    "histogram_family",
    "render_families",
    "ObsServer",
    "PROM_CONTENT_TYPE",
    "ObsSession",
    "watch_scenario",
]
