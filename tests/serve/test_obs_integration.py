"""Serve telemetry on the PR 8 bus: events, metric families, snapshot.

The daemon publishes ``serve_*`` trace events through an attached
:class:`repro.obs.BusSink`; the :class:`repro.obs.MetricsRegistry`
folds them into ``repro_serve_*`` Prometheus families and a ``serve``
snapshot section for the dashboard.  These tests pin the event shapes
(they validate against the live EventSpec registry) and the folding.
"""

from repro.obs import BusSink, TelemetryBus
from repro.obs.registry import MetricsRegistry
from repro.serve import MSTDaemon
from repro.serve.loadgen import run_embedded
from repro.trace.events import validate_event

from serve_harness import free_pair, open_client, run, small_config


def loaded_registry(clients=12, commands=6, **config_overrides):
    bus = TelemetryBus()
    registry = MetricsRegistry(bus)
    report, daemon = run(
        run_embedded(
            small_config(**config_overrides),
            clients=clients,
            commands=commands,
            seed=5,
            telemetry=BusSink(bus),
            subscribe_every=4,
        )
    )
    assert report.error_total == 0, report.errors
    assert report.verify["ok"]
    return bus, registry, report, daemon


class TestEventShapes:
    def test_all_serve_events_validate_against_their_specs(self):
        bus = TelemetryBus()
        sub = bus.subscribe("spec-check")
        report, daemon = run(
            run_embedded(
                small_config(), clients=6, commands=5,
                seed=1, telemetry=BusSink(bus), subscribe_every=3,
            )
        )
        assert report.verify["ok"]
        events = sub.poll()
        serve_events = [
            e for e in events if str(e.get("type", "")).startswith("serve_")
        ]
        assert serve_events, "daemon emitted no serve_* events"
        for event in serve_events:
            validate_event(dict(event))
        types = {e["type"] for e in serve_events}
        assert {
            "serve_start", "serve_conn", "serve_cmd",
            "serve_publish", "serve_stop",
        } <= types

    def test_stream_scheduler_events_ride_along(self):
        """The reducer's cuts emit the same sched_cut events the offline
        ingestor does — one observability surface."""
        bus = TelemetryBus()
        sub = bus.subscribe("sched-check")
        report, _ = run(
            run_embedded(
                small_config(), clients=4, commands=6,
                seed=2, telemetry=BusSink(bus),
            )
        )
        assert report.verify["ok"]
        types = {e.get("type") for e in sub.poll()}
        assert "sched_cut" in types


class TestRegistryFolding:
    def test_families_and_snapshot(self):
        _bus, registry, report, daemon = loaded_registry()
        snap = registry.snapshot()
        serve = snap["serve"]
        assert serve["running"] is False  # daemon was shut down
        assert serve["sessions"] == 0
        assert serve["connections"]["connect"] == report.clients
        assert serve["admitted"] == daemon.reducer.admitted
        assert serve["rejected"] == 0
        assert serve["publishes"] == daemon.reducer.view.version
        assert serve["forest_version"] == daemon.reducer.view.version
        assert serve["digest"] == daemon.reducer.ledger_digest()
        assert serve["commands"]["bye/ok"] >= 1
        names = {f.name for f in registry.collect()}
        assert {
            "repro_serve_up",
            "repro_serve_sessions",
            "repro_serve_connections_total",
            "repro_serve_commands_total",
            "repro_serve_errors_total",
            "repro_serve_evictions_total",
            "repro_serve_publishes_total",
            "repro_serve_forest_version",
            "repro_serve_admitted_total",
            "repro_serve_rejected_total",
        } <= names

    def test_running_gauge_goes_up_then_down(self):
        bus = TelemetryBus()
        registry = MetricsRegistry(bus)

        async def scenario():
            daemon = MSTDaemon(small_config(), telemetry=BusSink(bus))
            await daemon.start()
            registry.pump()
            assert registry.serve_running == 1
            client = await open_client(daemon)
            u, v = free_pair(daemon.reducer)
            assert (await client.request("add", u=u, v=v, w=0.5))["ok"]
            client.close()
            await daemon.shutdown(drain=True)
            registry.pump()
            assert registry.serve_running == 0
            assert registry.serve_admitted == 1

        run(scenario())

    def test_error_codes_reach_the_registry(self):
        bus = TelemetryBus()
        registry = MetricsRegistry(bus)

        async def scenario():
            daemon = MSTDaemon(small_config(), telemetry=BusSink(bus))
            await daemon.start()
            client = await open_client(daemon)
            await client.send_bytes(b"not json\n")
            resp = await client.request("delete", u=0, v=1)
            assert resp is not None
            client.close()
            await daemon.shutdown(drain=True)

        run(scenario())
        registry.pump()
        assert registry.serve_cmd_errors.get("bad-frame") == 1
        assert ("?", "error") in registry.serve_cmds
