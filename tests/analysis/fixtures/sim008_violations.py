"""Seeded SIM008 violations: emit() calls drifting from the trace schema."""


def report(recorder, profile):
    # Unknown event type: not in repro.trace.events.EVENT_SPECS.
    recorder.emit("warp_speed", level=9)
    # Field the schema does not declare for batch_start.
    recorder.emit("batch_start", size=1, mode="batch", vibe="chaotic")
    # phase_end requires the charge triple; only name/depth given.
    recorder.emit("phase_end", name="p", depth=1)


def scheduler_telemetry(recorder):
    # sched_cut requires reason/raw/shipped/queue_depth; reason missing.
    recorder.emit("sched_cut", raw=3, shipped=3, queue_depth=0)
    # stream_end does not declare a wall_s field.
    recorder.emit("stream_end", admitted=5, shipped=5, cuts=1,
                  elapsed_ticks=4, wall_s=0.2)


def serve_telemetry(recorder):
    # serve_cmd requires op/status; status missing.
    recorder.emit("serve_cmd", op="add", client=1)
    # serve_publish does not declare a clients field.
    recorder.emit("serve_publish", version=2, added=1, removed=1,
                  weight=3.5, clients=9)
