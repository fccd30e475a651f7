"""The trace event schema: typed, versioned JSONL round events.

A trace is a JSON-Lines file.  Every line is one event object carrying at
least ``type`` and ``seq`` (a per-trace monotone counter).  The first
event is always ``trace_start`` and carries the schema tag; readers must
refuse traces whose major schema differs.

Event types (``repro-trace/1``):

``trace_start``
    ``schema``, optional ``meta`` (free-form context supplied at
    recorder construction — scenario name, CLI arguments, …).
``run_start`` / ``run_end``
    Emitted by :meth:`repro.core.api.DynamicMST.attach_trace` and
    :meth:`~repro.core.api.DynamicMST.detach_trace`.  ``run_start``
    carries the model metadata (``model``, ``k``, ``words_per_round``
    or ``space``, ``engine``); ``run_end`` carries ledger totals, the
    ledger ``digest`` and the ``strict_violations`` count.  No emitter
    writes the optional ``profile`` any more; older traces carry a
    per-phase wall/alloc summary there, and readers ignore it.
``superstep``
    One communication superstep *and* its ledger charge, merged: the
    transcript ``index``, the charge triple ``rounds``/``messages``/
    ``words``, the active ledger ``phases`` stack, the charging call
    ``site`` (``file:line``), the ``engine`` that delivered it
    (``"scalar"`` or ``"columnar"``), per-machine ``send``/``recv``
    word vectors, and ``sizes`` — a ``{words: count}`` histogram of
    message sizes.
``charge``
    A ledger charge with no superstep attached (synchronization
    barriers via ``charge_rounds``, protocol-level lump charges).
    Fields: ``index``, ``rounds``, ``messages``, ``words``,
    ``phases``, ``site``.
``phase_start`` / ``phase_end``
    Ledger phase boundaries.  ``phase_end`` carries the phase's charge
    delta (``rounds``/``messages``/``words``) for that activation.
    With ``wall_ns`` stamps, a pair matched by ``depth`` is the one
    wall-time span: the activation's inclusive wall time is the
    difference of the two stamps.
``batch_start`` / ``batch_end``
    Update-batch boundaries from the :class:`DynamicMST` facade:
    ``size`` and ``mode`` on start; the ledger delta plus ``details``
    on end.
``engine``
    A fast-path engine selection at a dispatch point: ``feature``
    (e.g. ``"structural_batch"``) and ``engine``.
``violation``
    A strict-mode violation: ``kind`` (see
    :func:`repro.sim.strict.violation_kind`) and ``message``.
``fault``
    Transport faults injected during one superstep
    (:mod:`repro.faults`): ``kinds``, a ``{kind: count}`` map over
    drop/duplicate/reorder/blackhole/suppressed.
``machine_crash`` / ``machine_restart``
    A fail-stop crash (volatile state and space ledger lost) and the
    later restart of ``machine``.
``checkpoint``
    A coordinated snapshot at a batch barrier: ``batch`` (the next
    batch index) plus ``machines`` and ``log_cleared``.
``recovery_start`` / ``recovery_end``
    A rollback-and-replay recovery: ``machines`` (the dead set) on
    start; ``machines``, ``rounds`` (the recovery's full charged cost)
    and ``replayed`` (logged batches re-executed) on end.
``sched_cut``
    The streaming admission scheduler (:mod:`repro.stream`) cut the
    buffer into a batch: the ``reason`` (``"size"``, ``"deadline"``,
    ``"flush"``), ``raw`` arrivals covered by the cut, ``shipped``
    updates actually handed to the batch machinery (≤ raw after
    coalescing), and the ``queue_depth`` left behind; optionally the
    arrival ``tick``, the ``oldest_age`` of what shipped and the number
    of ``batches`` the cut was split into.  Host-side: scheduling
    charges zero rounds, so these events are never charge-bearing.
``stream_end``
    Streaming-run totals: raw updates ``admitted``, updates ``shipped``
    into the batch machinery, scheduler ``cuts`` and the run's
    ``elapsed_ticks``; optionally applied ``batches``, arrivals
    ``absorbed`` by coalescing, and the ``p50_ticks``/``p99_ticks``
    staleness quantiles.
``serve_start`` / ``serve_stop``
    Lifecycle of the :mod:`repro.serve` daemon: cluster size ``k``
    (plus ``host``/``port``/``backend`` and the graph shape) when it
    comes up; sessions served, mutations ``admitted`` and
    ``rejected`` (plus ``cuts``/``batches``/``evicted`` and the final
    ledger ``digest``) when it drains.
``serve_conn``
    One connection transition: ``action`` (``"connect"``, ``"close"``
    or ``"evict"``), optionally the ``client`` name, the eviction
    ``reason`` (``"slow-consumer"``, ``"rate-limit"``) and the live
    session count.
``serve_cmd``
    One protocol command handled: its ``op`` (``"?"`` when the frame
    never parsed) and ``status`` (``"ok"``/``"error"``), optionally the
    ``client`` and the error ``code``.  Host-side and never
    charge-bearing — protocol handling costs zero rounds.
``serve_publish``
    The reducer published a new forest view after an applied cut:
    ``version``, the count of ``added`` and ``removed`` forest edges,
    the new total ``weight``; optionally the logical ``tick``, the
    cut's ``batches``/``rounds`` and its ``reason``.
``trace_end``
    Totals: ``events``, ``charges``, ``rounds``, ``messages``,
    ``words``.

Events with an ``index`` field ("charge-bearing" events) are the
equivalence contract: two traces are ledger-equivalent iff their
charge-bearing events agree on ``(rounds, messages, words)`` at every
index — the exact content hashed by
:meth:`repro.sim.metrics.Ledger.digest`.

Every event may additionally carry the ambient fields in
:data:`AMBIENT_FIELDS` — today just ``wall_ns``, the opt-in wall-clock
stamp (``REPRO_TRACE_WALL=1``).  Ambient fields are stamped by the
emitter, stripped by :func:`strip_ambient` before any digesting or
diffing, and accepted by :func:`validate_event` even in strict mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

#: Schema tag stamped into every ``trace_start`` event.
TRACE_SCHEMA = "repro-trace/1"

#: Fields any event may carry regardless of its spec.  They are stamped
#: by the emitter (like ``type``/``seq``), opt-in, and stripped before
#: digesting — wall-clock values never participate in equivalence.
AMBIENT_FIELDS: Tuple[str, ...] = ("wall_ns",)


@dataclass(frozen=True)
class EventSpec:
    """One event type's contract in the versioned schema.

    ``required`` fields must be present on every instance; ``optional``
    fields may be present; any *other* field is schema drift (rejected
    by :func:`validate_event` in strict mode, and flagged statically at
    the ``emit()`` call site by simlint rule SIM008).  ``type`` and
    ``seq`` are stamped by the emitter itself and belong to neither
    list.
    """

    type: str
    required: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    #: Carries a ledger-transcript ``index`` and the charge triple — the
    #: events :mod:`repro.trace.diff` compares.
    charge_bearing: bool = False

    @property
    def allowed(self) -> Tuple[str, ...]:
        return self.required + self.optional


#: The ``repro-trace/1`` schema, one spec per event type.  Append-only
#: within a major version: removing or re-typing a field is a schema
#: bump, adding an *optional* field is not.
EVENT_SPECS: Tuple[EventSpec, ...] = (
    EventSpec("trace_start", required=("schema",), optional=("meta",)),
    EventSpec(
        "run_start",
        required=("model", "k"),
        optional=(
            "words_per_round", "space", "engine", "n", "m", "strict",
            "faults",
        ),
    ),
    EventSpec(
        "run_end",
        required=("rounds", "messages", "words"),
        optional=("profile", "digest", "strict_violations"),
    ),
    EventSpec(
        "superstep",
        required=(
            "index", "rounds", "messages", "words", "engine", "send", "recv",
        ),
        optional=("phases", "site", "sizes"),
        charge_bearing=True,
    ),
    EventSpec(
        "charge",
        required=("index", "rounds", "messages", "words"),
        optional=("phases", "site"),
        charge_bearing=True,
    ),
    EventSpec("phase_start", required=("name", "depth")),
    EventSpec(
        "phase_end",
        required=("name", "depth", "rounds", "messages", "words"),
    ),
    EventSpec("batch_start", required=("size", "mode")),
    EventSpec(
        "batch_end",
        required=("size", "mode", "rounds", "messages", "words"),
        optional=("details",),
    ),
    EventSpec("engine", required=("feature", "engine")),
    EventSpec("violation", required=("kind", "message")),
    EventSpec("fault", required=("kinds",)),
    EventSpec("machine_crash", required=("machine",)),
    EventSpec("machine_restart", required=("machine",)),
    EventSpec(
        "checkpoint",
        required=("batch",),
        optional=("machines", "log_cleared"),
    ),
    EventSpec("recovery_start", required=("machines",)),
    EventSpec(
        "recovery_end", required=("machines", "rounds", "replayed"),
    ),
    EventSpec(
        "sched_cut",
        required=("reason", "raw", "shipped", "queue_depth"),
        optional=("tick", "oldest_age", "batches"),
    ),
    EventSpec(
        "stream_end",
        required=("admitted", "shipped", "cuts", "elapsed_ticks"),
        optional=("batches", "absorbed", "p50_ticks", "p99_ticks"),
    ),
    EventSpec(
        "serve_start",
        required=("k",),
        optional=("host", "port", "backend", "n", "m", "coalesce"),
    ),
    EventSpec(
        "serve_conn",
        required=("action",),
        optional=("client", "reason", "sessions"),
    ),
    EventSpec(
        "serve_cmd",
        required=("op", "status"),
        optional=("client", "code"),
    ),
    EventSpec(
        "serve_publish",
        required=("version", "added", "removed", "weight"),
        optional=("tick", "batches", "rounds", "reason"),
    ),
    EventSpec(
        "serve_stop",
        required=("sessions", "admitted", "rejected"),
        optional=("cuts", "batches", "evicted", "digest"),
    ),
    EventSpec(
        "trace_end",
        required=("events", "charges", "rounds", "messages", "words"),
    ),
)

#: Spec lookup by event type.
SPEC_BY_TYPE: Dict[str, EventSpec] = {spec.type: spec for spec in EVENT_SPECS}

#: Every event type the version-1 schema may emit (derived; kept as a
#: module constant for back-compat with pre-EventSpec readers).
EVENT_TYPES: Tuple[str, ...] = tuple(spec.type for spec in EVENT_SPECS)

#: Event types that carry a ledger-transcript ``index`` and the charge
#: triple — the events :mod:`repro.trace.diff` compares.
CHARGE_BEARING: Tuple[str, ...] = tuple(
    spec.type for spec in EVENT_SPECS if spec.charge_bearing
)

#: Required fields per event type (beyond ``type`` and ``seq``; derived).
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    spec.type: spec.required for spec in EVENT_SPECS
}

#: Every field the schema allows per event type (required + optional).
ALLOWED_FIELDS: Dict[str, Tuple[str, ...]] = {
    spec.type: spec.allowed for spec in EVENT_SPECS
}


class TraceFormatError(ValueError):
    """A trace file does not conform to the schema this reader speaks."""


def is_charge_bearing(event: Dict[str, Any]) -> bool:
    return event.get("type") in CHARGE_BEARING


def charge_triple(event: Dict[str, Any]) -> Tuple[int, int, int]:
    """The ``(rounds, messages, words)`` a charge-bearing event recorded."""
    return (int(event["rounds"]), int(event["messages"]), int(event["words"]))


def validate_event(event: Dict[str, Any], strict: bool = False) -> None:
    """Raise :class:`TraceFormatError` unless ``event`` fits the schema.

    ``strict`` additionally rejects fields the event's spec does not
    declare (readers default to tolerant, so an *optional*-field
    addition in a newer minor schema still reads).
    """
    etype = event.get("type")
    if not isinstance(etype, str) or etype not in SPEC_BY_TYPE:
        raise TraceFormatError(f"unknown event type {etype!r}")
    if not isinstance(event.get("seq"), int):
        raise TraceFormatError(f"event {etype!r} lacks an integer 'seq'")
    spec = SPEC_BY_TYPE[etype]
    missing = [f for f in spec.required if f not in event]
    if missing:
        raise TraceFormatError(
            f"event {etype!r} (seq {event['seq']}) missing fields: {missing}"
        )
    if strict:
        allowed = set(spec.allowed) | {"type", "seq"} | set(AMBIENT_FIELDS)
        unknown = sorted(f for f in event if f not in allowed)
        if unknown:
            raise TraceFormatError(
                f"event {etype!r} (seq {event['seq']}) carries fields the "
                f"schema does not declare: {unknown}"
            )


def check_schema(first_event: Dict[str, Any]) -> None:
    """Validate the header event that must open every trace."""
    if first_event.get("type") != "trace_start":
        raise TraceFormatError(
            f"trace does not start with 'trace_start' (got {first_event.get('type')!r})"
        )
    schema = first_event.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceFormatError(
            f"unsupported trace schema {schema!r} (this reader speaks {TRACE_SCHEMA!r})"
        )


def validate_events(events: Sequence[Dict[str, Any]]) -> None:
    """Validate a whole event stream: header, per-event fields, ordering."""
    if not events:
        raise TraceFormatError("empty trace")
    check_schema(events[0])
    last_seq = -1
    last_index = -1
    for event in events:
        validate_event(event)
        seq = int(event["seq"])
        if seq <= last_seq:
            raise TraceFormatError(
                f"event seq {seq} not strictly increasing (after {last_seq})"
            )
        last_seq = seq
        if is_charge_bearing(event):
            index = int(event["index"])
            if index != last_index + 1:
                raise TraceFormatError(
                    f"charge index {index} out of order (expected {last_index + 1})"
                )
            last_index = index


def charge_events(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The charge-bearing subsequence, in transcript order."""
    return [e for e in events if is_charge_bearing(e)]


def strip_ambient(event: Dict[str, Any]) -> Dict[str, Any]:
    """``event`` without its ambient fields (a copy if any were present).

    Digest and diff paths call this so opt-in wall-clock stamps can
    never perturb equivalence checks.
    """
    if not any(f in event for f in AMBIENT_FIELDS):
        return event
    return {k: v for k, v in event.items() if k not in AMBIENT_FIELDS}
