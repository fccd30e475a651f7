"""MetricsRegistry aggregation from synthetic and real event streams."""

from repro.obs import BusSink, MetricsRegistry, TelemetryBus, render_families


def _registry():
    bus = TelemetryBus(capacity=256)
    return bus, MetricsRegistry(bus)


def test_charges_fold_into_totals_and_phases():
    bus, reg = _registry()
    bus.publish({"type": "charge", "seq": 0, "rounds": 2, "messages": 3,
                 "words": 5, "phases": ["add", "add.inner"]})
    bus.publish({"type": "charge", "seq": 1, "rounds": 1, "messages": 1,
                 "words": 1, "phases": ["add"]})
    reg.pump()
    assert (reg.rounds, reg.messages, reg.words, reg.charges) == (3, 4, 6, 2)
    assert reg.phase_rounds == {"add": 3, "add.inner": 2}
    assert reg.phase_words == {"add": 6, "add.inner": 5}


def test_superstep_folds_machine_loads_and_skew():
    bus, reg = _registry()
    bus.publish({"type": "superstep", "seq": 0, "rounds": 1, "messages": 2,
                 "words": 6, "phases": [], "engine": "columnar",
                 "send": [4, 1, 1], "recv": [2, 2, 2],
                 "sizes": {"1": 1, "2": 1}})
    reg.pump()
    assert reg.send_words == [4, 1, 1]
    assert reg.recv_words == [2, 2, 2]
    assert reg.send_skew == 2.0  # max 4 / mean 2
    assert reg.recv_skew == 1.0
    assert reg.engines == {"columnar": 1}
    assert reg.size_hist == {1: 1, 2: 1}


def test_batch_headroom_from_run_meta():
    bus, reg = _registry()
    bus.publish({"type": "run_start", "seq": 0, "model": "k-machine",
                 "k": 4, "n": 100, "m": 300, "engine": "sample_gather"})
    bus.publish({"type": "batch_start", "seq": 1, "size": 4,
                 "mode": "one_at_a_time"})
    bus.publish({"type": "batch_end", "seq": 2, "size": 4,
                 "mode": "one_at_a_time", "rounds": 100, "messages": 10,
                 "words": 20})
    reg.pump()
    assert reg.budget is not None
    allowed = reg.budget.batch_budget(4, "one_at_a_time")
    assert reg.last_headroom == allowed - 100
    assert reg.min_headroom == reg.last_headroom
    assert reg.budget_violations == (1 if allowed < 100 else 0)
    assert reg.recent_batches[-1]["rounds"] == 100


def test_chaos_counters():
    bus, reg = _registry()
    bus.publish({"type": "fault", "seq": 0, "kinds": {"drop": 3, "dup": 1}})
    bus.publish({"type": "machine_crash", "seq": 1, "machine": 1, "batch": 0})
    bus.publish({"type": "checkpoint", "seq": 2, "batch": 0})
    bus.publish({"type": "recovery_end", "seq": 3, "rounds": 7,
                 "replayed": 2})
    bus.publish({"type": "violation", "seq": 4, "kind": "x", "message": "m"})
    reg.pump()
    assert reg.faults == {"drop": 3, "dup": 1}
    assert (reg.crashes, reg.checkpoints, reg.recoveries) == (1, 1, 1)
    assert reg.recovery_rounds == 7
    assert reg.replayed_batches == 2
    assert reg.violations == 1


def test_rounds_per_second_uses_wall_window():
    bus, reg = _registry()
    bus.publish({"type": "charge", "seq": 0, "rounds": 10, "messages": 0,
                 "words": 0, "phases": [], "wall_ns": 1_000_000_000})
    bus.publish({"type": "charge", "seq": 1, "rounds": 10, "messages": 0,
                 "words": 0, "phases": [], "wall_ns": 3_000_000_000})
    reg.pump()
    assert reg.elapsed_seconds == 2.0
    assert reg.rounds_per_second == 10.0


def test_collect_renders_gauges_and_counters():
    bus, reg = _registry()
    sink = BusSink(bus)
    sink.on_superstep("columnar", 2, 6, [4, 1, 1], [2, 2, 2], {1: 2})
    sink.on_charge(1, 2, 6, 0, ["add"])
    sink.close()
    body = render_families(reg.collect())
    assert "# TYPE repro_rounds_total counter" in body
    assert "# TYPE repro_machine_send_skew gauge" in body
    assert "# TYPE repro_rounds_per_second gauge" in body
    assert "# TYPE repro_batch_rounds histogram" in body
    assert 'repro_machine_send_words_total{machine="0"} 4' in body
    # trace_start + merged superstep/charge + trace_end
    assert "repro_bus_events_total 3" in body


def test_snapshot_shape():
    bus, reg = _registry()
    snap = reg.snapshot()
    assert snap["schema"] == "repro-obs-snapshot/1"
    for key in ("run", "totals", "rates", "machines", "budget",
                "batches", "chaos", "bus"):
        assert key in snap
    assert snap["bus"]["events"] == 0


def test_registry_counts_bus_drops():
    bus = TelemetryBus(capacity=4)
    reg = MetricsRegistry(bus)
    for i in range(20):
        bus.publish({"type": "charge", "seq": i, "rounds": 1, "messages": 0,
                     "words": 0, "phases": []})
    reg.pump()
    assert reg.rounds == 4  # only the surviving ring slots
    assert reg.dropped_events() == 16
