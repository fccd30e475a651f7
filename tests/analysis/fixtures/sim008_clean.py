"""SIM008 negatives: schema-conformant, dynamic, and star-kwargs emits."""


def report(recorder, name, extra):
    # Fully conformant: required fields present, optionals declared.
    recorder.emit("phase_start", name=name, depth=1)
    recorder.emit(
        "batch_end", size=2, mode="batch",
        rounds=1, messages=3, words=9, details={},
    )
    # Dynamic event type: runtime validation's job, not the linter's.
    recorder.emit(name, payload=1)
    # Star-kwargs may carry the required fields; absence is unprovable.
    recorder.emit("run_end", rounds=1, messages=2, words=3, **extra)


def scheduler_telemetry(recorder, age):
    # The streaming scheduler events: required + declared optionals.
    recorder.emit(
        "sched_cut", reason="size", raw=12, shipped=8, queue_depth=4,
        tick=7, oldest_age=age, batches=2,
    )
    recorder.emit(
        "stream_end", admitted=20, shipped=14, cuts=3,
        elapsed_ticks=11, batches=4, absorbed=6,
        p50_ticks=1.0, p99_ticks=4.0,
    )


def serve_telemetry(sink, port):
    # The serve daemon events: required + declared optionals.
    sink.emit(
        "serve_start", k=8,
        host="127.0.0.1", port=port, backend="inproc-columnar",
        n=64, m=128, coalesce=True,
    )
    sink.emit("serve_conn", action="evict", client=3,
              reason="slow-consumer", sessions=11)
    sink.emit("serve_cmd", op="add", status="ok", client=3)
    sink.emit(
        "serve_publish", version=4, added=1, removed=0, weight=12.5,
        tick=9, batches=1, rounds=6, reason="size",
    )
    sink.emit("serve_stop", sessions=0, admitted=40, rejected=2,
              cuts=5, batches=7, evicted=1, digest="ab" * 32)
