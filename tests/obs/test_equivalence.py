"""The detached-telemetry contract: attaching a bus changes nothing.

The acceptance criterion of the observability layer: under
``REPRO_STRICT=1``, a run with a :class:`BusSink` attached (alone or
teed with the file recorder) produces a byte-identical ledger digest
and byte-identical trace-file bytes versus a run with no telemetry at
all — wall-clock values never enter a digest.
"""

import io

import pytest

from repro.obs import BusSink, MetricsRegistry, TelemetryBus
from repro.trace.scenarios import Scenario, run_traced

TINY = Scenario("tiny", n=80, k=4, batch=4, n_batches=2, init="free", seed=3)


@pytest.fixture(autouse=True)
def strict(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")


def _run(sink=None, telemetry=None):
    return run_traced(TINY, sink, telemetry=telemetry)


def test_attached_bus_keeps_ledger_digest_identical():
    baseline = _run()
    bus = TelemetryBus()
    telemetry = BusSink(bus)
    watched = _run(telemetry=telemetry)
    telemetry.close()
    assert watched["digest"] == baseline["digest"]
    assert watched["rounds"] == baseline["rounds"]
    assert watched["words"] == baseline["words"]
    assert bus.published > 0  # the bus really saw the run


def test_teed_recorder_writes_identical_file_bytes():
    plain = io.StringIO()
    _run(sink=plain)

    bus = TelemetryBus()
    registry = MetricsRegistry(bus)
    telemetry = BusSink(bus)
    teed = io.StringIO()
    summary = _run(sink=teed, telemetry=telemetry)
    telemetry.close()

    assert teed.getvalue() == plain.getvalue()
    # And the registry aggregated the same totals the ledger reports.
    registry.pump()
    assert registry.rounds == summary["rounds"]
    assert registry.words == summary["words"]


def test_bus_events_carry_wall_ns_but_file_does_not():
    import json

    bus = TelemetryBus()
    telemetry = BusSink(bus)
    sub = bus.subscribe("probe")
    teed = io.StringIO()
    _run(sink=teed, telemetry=telemetry)
    telemetry.close()
    bus_events = sub.poll()
    assert bus_events and all("wall_ns" in e for e in bus_events)
    file_events = [json.loads(line) for line in teed.getvalue().splitlines()]
    assert file_events and all("wall_ns" not in e for e in file_events)


def test_detached_run_has_no_recorder_attribute_cost_path():
    # With no trace and no telemetry the ledger's recorder slot stays
    # None for the whole run — the documented one-attribute-read cost.
    import numpy as np

    from repro.core import DynamicMST
    from repro.graphs import random_weighted_graph

    rng = np.random.default_rng(0)
    g = random_weighted_graph(60, 180, rng)
    dm = DynamicMST.build(g, 4, rng=rng, init="free")
    assert dm.net.ledger.recorder is None
