"""The metrics registry: bus events in, counters/gauges/histograms out.

A :class:`MetricsRegistry` subscribes to a
:class:`~repro.obs.bus.TelemetryBus` and folds the event stream into
the live operational state the ROADMAP dashboard asks for:

* throughput — cumulative rounds/messages/words plus a **rounds/sec**
  gauge over the run's wall-clock window;
* balance — per-machine cumulative send/recv words and their **skew**
  (max/mean), the quantity the Lenzen-routing assumptions keep near 1;
* latency — **batch histograms** in both charged rounds and wall
  seconds;
* headroom — the live **theorem-budget headroom** per batch, from
  :func:`repro.trace.budgets.budget_for_run` (positive: rounds to
  spare under the envelope; negative: over budget);
* chaos — fault/retry/crash/checkpoint/recovery counters;
* the serve daemon — live sessions, command outcomes by op/status,
  protocol error codes, forest-view publications and evictions (the
  ``serve_*`` events from ``repro serve``);
* the bus itself — events seen and events dropped on the floor because
  this consumer was too slow.

Aggregation happens on :meth:`pump` (called by every ``collect``/
``snapshot``), so the registry needs no thread of its own: the HTTP
scrape is the scheduler.  Nothing here ever touches the simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bus import Subscription, TelemetryBus
from repro.obs.prom import MetricFamily, histogram_family
from repro.trace.budgets import RoundBudget, budget_for_run

#: Bucket bounds for batch cost in charged rounds.
BATCH_ROUND_BUCKETS: Tuple[float, ...] = (
    64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
)
#: Bucket bounds for batch latency in wall seconds.
BATCH_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: How many finished batches the JSON snapshot keeps for the dashboard.
RECENT_BATCH_WINDOW = 50


class Histogram:
    """Fixed-bucket histogram (counts per bound, plus sum and count)."""

    def __init__(self, buckets: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts: Dict[float, int] = {b: 0 for b in self.bounds}
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for bound in self.bounds:
            if value <= bound:
                self.counts[bound] += 1
                break

    def family(self, name: str, help_text: str) -> MetricFamily:
        return histogram_family(
            name, help_text, self.counts, round(self.total, 9), self.count
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": {str(b): self.counts[b] for b in self.bounds},
            "sum": round(self.total, 9),
            "count": self.count,
        }


def _skew(loads: Sequence[int]) -> float:
    positive = [x for x in loads if x > 0]
    if not positive:
        return 1.0
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean > 0 else 1.0


def _grow_to(vec: List[int], n: int) -> None:
    if len(vec) < n:
        vec.extend([0] * (n - len(vec)))


class MetricsRegistry:
    """Folds telemetry-bus events into scrapeable metric families."""

    def __init__(
        self,
        bus: Optional[TelemetryBus] = None,
        envelope: Optional[int] = None,
    ) -> None:
        self.bus = bus
        self.envelope = envelope
        self._sub: Optional[Subscription] = (
            bus.subscribe("metrics-registry") if bus is not None else None
        )
        # throughput
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.charges = 0
        self.supersteps = 0
        self.engines: Dict[str, int] = {}
        self.events_seen = 0
        # wall-clock window (from event wall_ns stamps; None until seen)
        self.first_wall_ns: Optional[int] = None
        self.last_wall_ns: Optional[int] = None
        # balance
        self.send_words: List[int] = []
        self.recv_words: List[int] = []
        self.size_hist: Dict[int, int] = {}
        # phases (same attribution rule as the ledger)
        self.phase_rounds: Dict[str, int] = {}
        self.phase_words: Dict[str, int] = {}
        # batches / budget
        self.run_meta: Dict[str, Any] = {}
        self.budget: Optional[RoundBudget] = None
        self.batches = 0
        self.budget_violations = 0
        self.last_headroom: Optional[int] = None
        self.min_headroom: Optional[int] = None
        self.batch_rounds = Histogram(BATCH_ROUND_BUCKETS)
        self.batch_seconds = Histogram(BATCH_SECONDS_BUCKETS)
        self.recent_batches: List[Dict[str, Any]] = []
        self._open_batch_wall_ns: Optional[int] = None
        # chaos
        self.violations = 0
        self.faults: Dict[str, int] = {}
        self.crashes = 0
        self.restarts = 0
        self.checkpoints = 0
        self.recoveries = 0
        self.recovery_rounds = 0
        self.replayed_batches = 0
        # streaming scheduler (repro.stream)
        self.stream_admitted = 0
        self.stream_shipped = 0
        self.stream_absorbed = 0
        self.stream_cuts: Dict[str, int] = {}
        self.stream_queue_depth = 0
        self.stream_oldest_age = 0
        self.stream_tick = 0
        self.stream_runs = 0
        self.stream_p50_ticks: Optional[float] = None
        self.stream_p99_ticks: Optional[float] = None
        # serve daemon (repro.serve)
        self.serve_running = 0
        self.serve_sessions = 0
        self.serve_conns: Dict[str, int] = {}
        self.serve_evictions: Dict[str, int] = {}
        self.serve_cmds: Dict[Tuple[str, str], int] = {}
        self.serve_cmd_errors: Dict[str, int] = {}
        self.serve_publishes = 0
        self.serve_version = 0
        self.serve_edges_added = 0
        self.serve_edges_removed = 0
        self.serve_weight: Optional[float] = None
        self.serve_admitted = 0
        self.serve_rejected = 0
        self.serve_digest: Optional[str] = None
        # lifecycle
        self.runs_started = 0
        self.runs_ended = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def pump(self, max_events: Optional[int] = None) -> int:
        """Drain and fold pending bus events; returns how many."""
        if self._sub is None:
            return 0
        events = self._sub.poll(max_events)
        for event in events:
            self.apply(event)
        return len(events)

    def apply(self, event: Dict[str, Any]) -> None:
        """Fold one event (public so tests can feed events directly)."""
        self.events_seen += 1
        wall = event.get("wall_ns")
        if isinstance(wall, int):
            if self.first_wall_ns is None:
                self.first_wall_ns = wall
            self.last_wall_ns = wall
        etype = event.get("type")
        handler = getattr(self, f"_on_{etype}", None)
        if handler is not None:
            handler(event)

    # -- event handlers (one per type; unknown types are ignored) -------
    def _on_run_start(self, event: Dict[str, Any]) -> None:
        self.runs_started += 1
        self.run_meta = {
            k: v for k, v in event.items()
            if k not in ("type", "seq", "wall_ns")
        }
        self.budget = budget_for_run(self.run_meta, envelope=self.envelope)

    def _on_run_end(self, event: Dict[str, Any]) -> None:
        self.runs_ended += 1

    def _on_superstep(self, event: Dict[str, Any]) -> None:
        self._fold_charge(event)
        self.supersteps += 1
        engine = str(event.get("engine", "?"))
        self.engines[engine] = self.engines.get(engine, 0) + 1
        send = [int(x) for x in event.get("send", ())]
        recv = [int(x) for x in event.get("recv", ())]
        _grow_to(self.send_words, len(send))
        _grow_to(self.recv_words, len(recv))
        for i, w in enumerate(send):
            self.send_words[i] += w
        for i, w in enumerate(recv):
            self.recv_words[i] += w
        for wstr, count in (event.get("sizes") or {}).items():
            w = int(wstr)
            self.size_hist[w] = self.size_hist.get(w, 0) + int(count)

    def _on_charge(self, event: Dict[str, Any]) -> None:
        self._fold_charge(event)

    def _fold_charge(self, event: Dict[str, Any]) -> None:
        rounds = int(event["rounds"])
        words = int(event["words"])
        self.charges += 1
        self.rounds += rounds
        self.messages += int(event["messages"])
        self.words += words
        for name in event.get("phases", ()):
            self.phase_rounds[name] = self.phase_rounds.get(name, 0) + rounds
            self.phase_words[name] = self.phase_words.get(name, 0) + words

    def _on_batch_start(self, event: Dict[str, Any]) -> None:
        wall = event.get("wall_ns")
        self._open_batch_wall_ns = wall if isinstance(wall, int) else None

    def _on_batch_end(self, event: Dict[str, Any]) -> None:
        self.batches += 1
        size = int(event["size"])
        mode = str(event["mode"])
        rounds = int(event["rounds"])
        self.batch_rounds.observe(float(rounds))
        wall = event.get("wall_ns")
        seconds: Optional[float] = None
        if isinstance(wall, int) and self._open_batch_wall_ns is not None:
            seconds = max(0.0, (wall - self._open_batch_wall_ns) / 1e9)
            self.batch_seconds.observe(seconds)
        self._open_batch_wall_ns = None
        headroom: Optional[int] = None
        if self.budget is not None:
            allowed = self.budget.batch_budget(size, mode)
            headroom = allowed - rounds
            self.last_headroom = headroom
            self.min_headroom = (
                headroom if self.min_headroom is None
                else min(self.min_headroom, headroom)
            )
            if headroom < 0:
                self.budget_violations += 1
        self.recent_batches.append(
            {
                "size": size, "mode": mode, "rounds": rounds,
                "words": int(event["words"]),
                "seconds": None if seconds is None else round(seconds, 6),
                "headroom": headroom,
            }
        )
        del self.recent_batches[:-RECENT_BATCH_WINDOW]

    def _on_violation(self, event: Dict[str, Any]) -> None:
        self.violations += 1

    def _on_fault(self, event: Dict[str, Any]) -> None:
        for kind, count in (event.get("kinds") or {}).items():
            self.faults[str(kind)] = self.faults.get(str(kind), 0) + int(count)

    def _on_machine_crash(self, event: Dict[str, Any]) -> None:
        self.crashes += 1

    def _on_machine_restart(self, event: Dict[str, Any]) -> None:
        self.restarts += 1

    def _on_checkpoint(self, event: Dict[str, Any]) -> None:
        self.checkpoints += 1

    def _on_recovery_end(self, event: Dict[str, Any]) -> None:
        self.recoveries += 1
        self.recovery_rounds += int(event["rounds"])
        self.replayed_batches += int(event["replayed"])

    def _on_sched_cut(self, event: Dict[str, Any]) -> None:
        reason = str(event["reason"])
        self.stream_cuts[reason] = self.stream_cuts.get(reason, 0) + 1
        # "raw" counts arrivals the cut covers, "shipped" what survived
        # coalescing; the difference is churn absorbed before it cost a
        # round.  (Totals are also stamped on stream_end; folding the
        # deltas here keeps the gauges live mid-run.)
        self.stream_shipped += int(event["shipped"])
        self.stream_queue_depth = int(event["queue_depth"])
        age = event.get("oldest_age")
        if isinstance(age, int):
            self.stream_oldest_age = age
        tick = event.get("tick")
        if isinstance(tick, int):
            self.stream_tick = tick

    def _on_stream_end(self, event: Dict[str, Any]) -> None:
        self.stream_runs += 1
        self.stream_admitted += int(event["admitted"])
        absorbed = event.get("absorbed")
        if isinstance(absorbed, int):
            self.stream_absorbed += absorbed
        self.stream_queue_depth = 0
        self.stream_oldest_age = 0
        for key in ("p50_ticks", "p99_ticks"):
            value = event.get(key)
            if isinstance(value, (int, float)):
                setattr(self, f"stream_{key}", float(value))

    def _on_serve_start(self, event: Dict[str, Any]) -> None:
        self.serve_running = 1

    def _on_serve_conn(self, event: Dict[str, Any]) -> None:
        action = str(event["action"])
        self.serve_conns[action] = self.serve_conns.get(action, 0) + 1
        sessions = event.get("sessions")
        if isinstance(sessions, int):
            self.serve_sessions = sessions
        if action == "evict":
            reason = str(event.get("reason", "?"))
            self.serve_evictions[reason] = (
                self.serve_evictions.get(reason, 0) + 1
            )

    def _on_serve_cmd(self, event: Dict[str, Any]) -> None:
        key = (str(event["op"]), str(event["status"]))
        self.serve_cmds[key] = self.serve_cmds.get(key, 0) + 1
        code = event.get("code")
        if code is not None:
            self.serve_cmd_errors[str(code)] = (
                self.serve_cmd_errors.get(str(code), 0) + 1
            )

    def _on_serve_publish(self, event: Dict[str, Any]) -> None:
        self.serve_publishes += 1
        self.serve_version = int(event["version"])
        self.serve_edges_added += int(event["added"])
        self.serve_edges_removed += int(event["removed"])
        weight = event.get("weight")
        if isinstance(weight, (int, float)):
            self.serve_weight = float(weight)

    def _on_serve_stop(self, event: Dict[str, Any]) -> None:
        self.serve_running = 0
        self.serve_sessions = 0
        self.serve_admitted += int(event["admitted"])
        self.serve_rejected += int(event["rejected"])
        digest = event.get("digest")
        if digest is not None:
            self.serve_digest = str(digest)

    # ------------------------------------------------------------------
    # derived gauges
    # ------------------------------------------------------------------
    @property
    def send_skew(self) -> float:
        return _skew(self.send_words)

    @property
    def recv_skew(self) -> float:
        return _skew(self.recv_words)

    @property
    def elapsed_seconds(self) -> float:
        if self.first_wall_ns is None or self.last_wall_ns is None:
            return 0.0
        return max(0.0, (self.last_wall_ns - self.first_wall_ns) / 1e9)

    @property
    def rounds_per_second(self) -> float:
        elapsed = self.elapsed_seconds
        return self.rounds / elapsed if elapsed > 0 else 0.0

    def dropped_events(self) -> int:
        return self._sub.dropped if self._sub is not None else 0

    # ------------------------------------------------------------------
    # export surfaces
    # ------------------------------------------------------------------
    def collect(self) -> List[MetricFamily]:
        """Pump the bus, then emit every family (the /metrics body)."""
        self.pump()
        fams: List[MetricFamily] = []

        def counter(name: str, help_text: str) -> MetricFamily:
            fam = MetricFamily(name, "counter", help_text)
            fams.append(fam)
            return fam

        def gauge(name: str, help_text: str) -> MetricFamily:
            fam = MetricFamily(name, "gauge", help_text)
            fams.append(fam)
            return fam

        counter("repro_rounds_total",
                "Synchronous rounds charged on the ledger").add(self.rounds)
        counter("repro_messages_total", "Messages delivered").add(self.messages)
        counter("repro_words_total", "Words moved").add(self.words)
        counter("repro_charges_total", "Ledger charges recorded").add(self.charges)
        fam = counter("repro_supersteps_total",
                      "Communication supersteps by engine")
        for name, count in sorted(self.engines.items()):
            fam.add(count, engine=name)
        gauge("repro_rounds_per_second",
              "Charged rounds per wall second over the run window"
              ).add(round(self.rounds_per_second, 3))

        fam = counter("repro_phase_rounds_total",
                      "Rounds attributed to each ledger phase")
        for name in sorted(self.phase_rounds):
            fam.add(self.phase_rounds[name], phase=name)
        fam = counter("repro_phase_words_total",
                      "Words attributed to each ledger phase")
        for name in sorted(self.phase_words):
            fam.add(self.phase_words[name], phase=name)

        fam = counter("repro_machine_send_words_total",
                      "Cumulative words sent per machine")
        for i, w in enumerate(self.send_words):
            fam.add(w, machine=i)
        fam = counter("repro_machine_recv_words_total",
                      "Cumulative words received per machine")
        for i, w in enumerate(self.recv_words):
            fam.add(w, machine=i)
        gauge("repro_machine_send_skew",
              "Max/mean skew of cumulative per-machine send words"
              ).add(round(self.send_skew, 4))
        gauge("repro_machine_recv_skew",
              "Max/mean skew of cumulative per-machine recv words"
              ).add(round(self.recv_skew, 4))
        fam = counter("repro_message_size_count",
                      "Messages by declared word size")
        for w, c in sorted(self.size_hist.items()):
            fam.add(c, words=w)

        counter("repro_batches_total", "Update batches applied").add(self.batches)
        fams.append(self.batch_rounds.family(
            "repro_batch_rounds",
            "Charged rounds per applied batch"))
        fams.append(self.batch_seconds.family(
            "repro_batch_duration_seconds",
            "Wall-clock latency per applied batch"))
        if self.last_headroom is not None:
            gauge("repro_budget_headroom_rounds",
                  "Theorem-budget headroom of the latest batch "
                  "(envelope minus measured rounds; negative = over budget)"
                  ).add(self.last_headroom)
        if self.min_headroom is not None:
            gauge("repro_budget_headroom_rounds_min",
                  "Worst theorem-budget headroom seen this run"
                  ).add(self.min_headroom)
        counter("repro_batch_budget_violations_total",
                "Batches whose measured rounds exceeded the theorem envelope"
                ).add(self.budget_violations)

        counter("repro_strict_violations_total",
                "Strict-mode violations recorded").add(self.violations)
        fam = counter("repro_faults_total",
                      "Injected transport faults by kind")
        for kind, count in sorted(self.faults.items()):
            fam.add(count, kind=kind)
        counter("repro_machine_crashes_total",
                "Fail-stop machine crashes").add(self.crashes)
        counter("repro_machine_restarts_total",
                "Machine restarts after a crash").add(self.restarts)
        counter("repro_checkpoints_total",
                "Coordinated checkpoints taken").add(self.checkpoints)
        counter("repro_recoveries_total",
                "Rollback-replay recoveries completed").add(self.recoveries)
        counter("repro_recovery_rounds_total",
                "Rounds spent in crash-recovery rollback/replay"
                ).add(self.recovery_rounds)

        counter("repro_stream_admitted_total",
                "Raw arrivals admitted by the streaming front end"
                ).add(self.stream_admitted)
        counter("repro_stream_shipped_total",
                "Updates shipped into the batch machinery after coalescing"
                ).add(self.stream_shipped)
        counter("repro_stream_absorbed_total",
                "Arrivals coalesced away before costing any rounds"
                ).add(self.stream_absorbed)
        fam = counter("repro_stream_cuts_total", "Scheduler cuts by reason")
        for reason, count in sorted(self.stream_cuts.items()):
            fam.add(count, reason=reason)
        gauge("repro_stream_queue_depth",
              "Pending updates in the admission buffer after the last cut"
              ).add(self.stream_queue_depth)
        gauge("repro_stream_oldest_age_ticks",
              "Age of the oldest queued update at the last cut"
              ).add(self.stream_oldest_age)
        if self.stream_p99_ticks is not None:
            gauge("repro_stream_staleness_p50_ticks",
                  "Median update staleness of the last finished stream run"
                  ).add(self.stream_p50_ticks or 0.0)
            gauge("repro_stream_staleness_p99_ticks",
                  "p99 update staleness of the last finished stream run"
                  ).add(self.stream_p99_ticks)

        gauge("repro_serve_up",
              "Whether an MST serve daemon is live on this bus"
              ).add(self.serve_running)
        gauge("repro_serve_sessions",
              "Currently connected serve sessions").add(self.serve_sessions)
        fam = counter("repro_serve_connections_total",
                      "Serve connection lifecycle events by action")
        for action, count in sorted(self.serve_conns.items()):
            fam.add(count, action=action)
        fam = counter("repro_serve_commands_total",
                      "Serve commands handled, by op and status")
        for (op, status), count in sorted(self.serve_cmds.items()):
            fam.add(count, op=op, status=status)
        fam = counter("repro_serve_errors_total",
                      "Serve command rejections by protocol error code")
        for code, count in sorted(self.serve_cmd_errors.items()):
            fam.add(count, code=code)
        fam = counter("repro_serve_evictions_total",
                      "Sessions force-closed by the daemon, by reason")
        for reason, count in sorted(self.serve_evictions.items()):
            fam.add(count, reason=reason)
        counter("repro_serve_publishes_total",
                "MSF-change publications pushed to subscribers"
                ).add(self.serve_publishes)
        gauge("repro_serve_forest_version",
              "Version of the last published forest view"
              ).add(self.serve_version)
        counter("repro_serve_forest_edges_added_total",
                "Forest edges gained across published views"
                ).add(self.serve_edges_added)
        counter("repro_serve_forest_edges_removed_total",
                "Forest edges lost across published views"
                ).add(self.serve_edges_removed)
        if self.serve_weight is not None:
            gauge("repro_serve_forest_weight",
                  "Total weight of the last published forest"
                  ).add(round(self.serve_weight, 6))
        counter("repro_serve_admitted_total",
                "Mutations admitted over finished daemon lifetimes"
                ).add(self.serve_admitted)
        counter("repro_serve_rejected_total",
                "Mutations rejected at admission over finished lifetimes"
                ).add(self.serve_rejected)

        counter("repro_bus_events_total",
                "Telemetry-bus events folded into this registry"
                ).add(self.events_seen)
        counter("repro_bus_dropped_events_total",
                "Bus events lost because this consumer lagged the ring"
                ).add(self.dropped_events())
        return fams

    def snapshot(self) -> Dict[str, Any]:
        """Pump the bus, then emit the dashboard's JSON state."""
        self.pump()
        return {
            "schema": "repro-obs-snapshot/1",
            "run": self.run_meta,
            "runs": {"started": self.runs_started, "ended": self.runs_ended},
            "totals": {
                "rounds": self.rounds,
                "messages": self.messages,
                "words": self.words,
                "charges": self.charges,
                "supersteps": self.supersteps,
                "batches": self.batches,
            },
            "rates": {
                "rounds_per_second": round(self.rounds_per_second, 3),
                "elapsed_seconds": round(self.elapsed_seconds, 3),
            },
            "machines": {
                "send_words": self.send_words,
                "recv_words": self.recv_words,
                "send_skew": round(self.send_skew, 4),
                "recv_skew": round(self.recv_skew, 4),
            },
            "engines": self.engines,
            "phases": {
                name: {
                    "rounds": self.phase_rounds[name],
                    "words": self.phase_words.get(name, 0),
                }
                for name in sorted(self.phase_rounds)
            },
            "budget": {
                "describe": (
                    self.budget.describe() if self.budget is not None else None
                ),
                "last_headroom": self.last_headroom,
                "min_headroom": self.min_headroom,
                "violations": self.budget_violations,
            },
            "batches": self.recent_batches,
            "batch_rounds": self.batch_rounds.as_dict(),
            "batch_seconds": self.batch_seconds.as_dict(),
            "chaos": {
                "faults": dict(sorted(self.faults.items())),
                "crashes": self.crashes,
                "restarts": self.restarts,
                "checkpoints": self.checkpoints,
                "recoveries": self.recoveries,
                "recovery_rounds": self.recovery_rounds,
                "replayed_batches": self.replayed_batches,
                "strict_violations": self.violations,
            },
            "stream": {
                "runs": self.stream_runs,
                "admitted": self.stream_admitted,
                "shipped": self.stream_shipped,
                "absorbed": self.stream_absorbed,
                "cuts": dict(sorted(self.stream_cuts.items())),
                "queue_depth": self.stream_queue_depth,
                "oldest_age_ticks": self.stream_oldest_age,
                "tick": self.stream_tick,
                "p50_ticks": self.stream_p50_ticks,
                "p99_ticks": self.stream_p99_ticks,
            },
            "serve": {
                "running": bool(self.serve_running),
                "sessions": self.serve_sessions,
                "connections": dict(sorted(self.serve_conns.items())),
                "commands": {
                    f"{op}/{status}": count
                    for (op, status), count in sorted(self.serve_cmds.items())
                },
                "errors": dict(sorted(self.serve_cmd_errors.items())),
                "evictions": dict(sorted(self.serve_evictions.items())),
                "publishes": self.serve_publishes,
                "forest_version": self.serve_version,
                "forest_weight": self.serve_weight,
                "edges_added": self.serve_edges_added,
                "edges_removed": self.serve_edges_removed,
                "admitted": self.serve_admitted,
                "rejected": self.serve_rejected,
                "digest": self.serve_digest,
            },
            "bus": {
                "events": self.events_seen,
                "dropped": self.dropped_events(),
                "published": self.bus.published if self.bus else None,
            },
        }

    def close(self) -> None:
        if self._sub is not None:
            self._sub.close()
            self._sub = None
