"""End-to-end tests for the streaming ingestor: accounting invariants,
determinism, oracle parity, scheduler trace events, and the MPC path."""

import io
import json

import pytest

from repro.core import DynamicMST
from repro.graphs import kruskal_msf, random_weighted_graph
from repro.graphs.mst import forest_digest
from repro.graphs.streams import uniform_arrival_stream
from repro.mpc import MPCDynamicMST
from repro.stream import StreamIngestor, make_shape, shape_names
from repro.trace.events import validate_event
from repro.trace.recorder import TraceRecorder


def _shape(name="sliding-window", seed=0, ticks=16, rate=6):
    return make_shape(name, seed=seed, ticks=ticks, rate=rate)


def _oracle_digest(arrivals):
    return forest_digest(kruskal_msf(arrivals.final_graph()))


def _run(arrivals, k=8, coalesce=True):
    dm = DynamicMST.build(arrivals.initial, k, rng=0, init="free")
    report = dm.ingest(arrivals, coalesce=coalesce)
    dm.check()
    return dm, report


class TestRunInvariants:
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_accounting_and_oracle_parity(self, coalesce):
        arrivals = _shape()
        dm, rep = _run(arrivals, coalesce=coalesce)
        assert rep.admitted == len(arrivals.arrivals)
        assert rep.admitted == rep.shipped + rep.absorbed
        assert rep.cuts == sum(rep.cut_reasons.values())
        assert rep.batches >= rep.cuts
        assert rep.forest_digest == _oracle_digest(arrivals)
        assert rep.msf_weight == pytest.approx(
            sum(e.weight for e in kruskal_msf(arrivals.final_graph()))
        )

    def test_uncoalesced_ships_everything(self):
        arrivals = _shape()
        _, rep = _run(arrivals, coalesce=False)
        assert rep.shipped == rep.admitted and rep.absorbed == 0

    def test_coalescing_ships_no_more(self):
        arrivals = _shape("adversarial")
        _, raw = _run(arrivals, coalesce=False)
        _, merged = _run(arrivals, coalesce=True)
        assert merged.shipped <= raw.shipped
        assert merged.forest_digest == raw.forest_digest

    def test_every_shape_runs_clean(self):
        for name in shape_names():
            arrivals = make_shape(name, seed=1, ticks=12, rate=4)
            _, rep = _run(arrivals)
            assert rep.forest_digest == _oracle_digest(arrivals)

    @pytest.mark.parametrize("coalesce", [False, True])
    def test_cuts_never_exceed_capacity(self, coalesce):
        arrivals = _shape("flash-crowd", ticks=24, rate=8)
        dm = DynamicMST.build(arrivals.initial, 4, rng=0, init="free")
        buf = io.StringIO()
        with TraceRecorder(buf) as rec:
            dm.attach_trace(rec)
            dm.ingest(arrivals, coalesce=coalesce)
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        cuts = [e for e in events if e["type"] == "sched_cut"]
        assert max(e["raw"] for e in cuts) == dm.batch_capacity
        assert all(e["shipped"] <= dm.batch_capacity for e in cuts)


class TestDeterminism:
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_replay_is_bit_stable(self, coalesce):
        arrivals = _shape(ticks=20, rate=8)
        reports = [_run(arrivals, coalesce=coalesce)[1] for _ in range(2)]
        a, b = reports
        for field in ("rounds", "messages", "words", "shipped", "absorbed",
                      "cuts", "batches", "elapsed_ticks", "forest_digest",
                      "p50_ticks", "p99_ticks", "cut_reasons"):
            assert getattr(a, field) == getattr(b, field), field

    def test_reports_compare_equal(self):
        # The ingestor reads no clock, so the whole report is a function
        # of the stream and the core: two fresh runs compare equal.
        arrivals = _shape(ticks=20, rate=8)
        a, b = (_run(arrivals)[1] for _ in range(2))
        assert a == b


class TestSchedulerBehaviour:
    def test_short_trickle_only_flushes(self):
        # A trickle shorter than the deadline that never fills a Θ(k)
        # batch: the only cut is the end-of-stream flush.
        g = random_weighted_graph(24, 40, rng=3)
        arrivals = uniform_arrival_stream(g, rate=1, n_ticks=6, rng=4)
        dm = DynamicMST.build(arrivals.initial, 16, rng=0, init="free")
        rep = dm.ingest(arrivals, coalesce=False)
        assert rep.cut_reasons == {"flush": rep.cuts}

    def test_deadline_policy_bounds_staleness(self):
        g = random_weighted_graph(24, 40, rng=3)
        arrivals = uniform_arrival_stream(g, rate=2, n_ticks=20, rng=4)
        dm = DynamicMST.build(arrivals.initial, 64, rng=0, init="free")
        rep = dm.ingest(arrivals, coalesce=False)
        assert "deadline" in rep.cut_reasons
        assert "size" not in rep.cut_reasons


class TestTraceEvents:
    def _traced_run(self, **kw):
        arrivals = _shape()
        dm = DynamicMST.build(arrivals.initial, 8, rng=0, init="free")
        buf = io.StringIO()
        with TraceRecorder(buf) as rec:
            dm.attach_trace(rec)
            rep = dm.ingest(arrivals, **kw)
        return rep, [json.loads(l) for l in buf.getvalue().splitlines()]

    def test_sched_events_validate_strictly(self):
        rep, events = self._traced_run()
        sched = [e for e in events
                 if e["type"] in ("sched_cut", "stream_end")]
        assert sched, "ingest emitted no scheduler events"
        for ev in sched:
            validate_event(ev, strict=True)

    def test_cut_events_match_report(self):
        rep, events = self._traced_run()
        cuts = [e for e in events if e["type"] == "sched_cut"]
        ends = [e for e in events if e["type"] == "stream_end"]
        assert len(cuts) == rep.cuts
        assert len(ends) == 1
        assert ends[0]["admitted"] == rep.admitted
        assert ends[0]["shipped"] == rep.shipped
        assert sum(e["shipped"] for e in cuts) == rep.shipped


class TestMPCPath:
    def test_mpc_ingest_matches_oracle_and_kmachine(self):
        arrivals = _shape(ticks=12, rate=4)
        dm = MPCDynamicMST.build(arrivals.initial, 4, rng=0, init="free")
        rep = dm.ingest(arrivals)
        dm.check()
        assert rep.forest_digest == _oracle_digest(arrivals)
        _, km = _run(arrivals)
        assert rep.forest_digest == km.forest_digest

    def test_mpc_capacity_is_space(self):
        arrivals = _shape(ticks=8, rate=4)
        dm = MPCDynamicMST.build(arrivals.initial, 4, rng=0, space=7, init="free")
        assert dm.batch_capacity == 7
        ing = StreamIngestor(dm, coalesce=False)
        assert ing.capacity == 7
