"""MetricsRegistry folding of the streaming scheduler's event family."""

from repro.obs import MetricsRegistry, TelemetryBus, render_families


def _registry():
    bus = TelemetryBus(capacity=256)
    return bus, MetricsRegistry(bus)


def _publish_run(bus, seq=0):
    bus.publish({"type": "sched_cut", "seq": seq, "reason": "size",
                 "raw": 12, "shipped": 8, "queue_depth": 5, "tick": 4,
                 "oldest_age": 2, "batches": 1})
    bus.publish({"type": "sched_cut", "seq": seq + 1, "reason": "flush",
                 "raw": 6, "shipped": 4, "queue_depth": 0, "tick": 9,
                 "oldest_age": 3, "batches": 2})
    bus.publish({"type": "stream_end", "seq": seq + 2, "admitted": 18,
                 "shipped": 12, "cuts": 2, "elapsed_ticks": 9,
                 "batches": 3, "absorbed": 6, "p50_ticks": 1.0,
                 "p99_ticks": 4.0})


def test_sched_events_fold_into_stream_state():
    bus, reg = _registry()
    _publish_run(bus)
    reg.pump()
    assert reg.stream_shipped == 12
    assert reg.stream_admitted == 18
    assert reg.stream_absorbed == 6
    assert reg.stream_cuts == {"size": 1, "flush": 1}
    assert reg.stream_runs == 1
    # stream_end zeroes the live gauges
    assert reg.stream_queue_depth == 0
    assert reg.stream_oldest_age == 0
    assert (reg.stream_p50_ticks, reg.stream_p99_ticks) == (1.0, 4.0)


def test_queue_gauges_live_mid_run():
    bus, reg = _registry()
    bus.publish({"type": "sched_cut", "seq": 0, "reason": "deadline",
                 "raw": 3, "shipped": 3, "queue_depth": 7, "tick": 5,
                 "oldest_age": 4})
    reg.pump()
    assert reg.stream_queue_depth == 7
    assert reg.stream_oldest_age == 4
    assert reg.stream_tick == 5


def test_stream_totals_accumulate_across_runs():
    bus, reg = _registry()
    _publish_run(bus, seq=0)
    _publish_run(bus, seq=10)
    reg.pump()
    assert reg.stream_runs == 2
    assert reg.stream_admitted == 36
    assert reg.stream_shipped == 24
    assert reg.stream_cuts["size"] == 2


def test_snapshot_and_exposition_carry_stream_families():
    bus, reg = _registry()
    _publish_run(bus)
    reg.pump()
    snap = reg.snapshot()["stream"]
    assert snap["admitted"] == 18
    assert snap["cuts"] == {"flush": 1, "size": 1}
    assert snap["p99_ticks"] == 4.0
    text = render_families(reg.collect())
    for family in ("repro_stream_admitted_total",
                   "repro_stream_shipped_total",
                   "repro_stream_absorbed_total",
                   "repro_stream_cuts_total",
                   "repro_stream_queue_depth",
                   "repro_stream_oldest_age_ticks",
                   "repro_stream_staleness_p99_ticks"):
        assert family in text, family
    assert 'repro_stream_cuts_total{reason="size"} 1' in text


def test_real_ingest_feeds_the_registry():
    """End-to-end: a live streamed run through the telemetry bus."""
    from repro.core import DynamicMST
    from repro.obs import BusSink
    from repro.stream import make_shape

    bus, reg = _registry()
    arrivals = make_shape("sliding-window", seed=0, ticks=12, rate=6)
    dm = DynamicMST.build(arrivals.initial, 8, rng=0, init="free")
    sink = BusSink(bus)
    dm.attach_trace(sink)
    rep = dm.ingest(arrivals)
    dm.detach_trace()
    sink.close()
    reg.pump()
    assert reg.stream_runs == 1
    assert reg.stream_admitted == rep.admitted
    assert reg.stream_shipped == rep.shipped
    assert reg.stream_absorbed == rep.absorbed
    assert reg.stream_cuts == rep.cut_reasons
