"""Unit tests for the reduce stage: validation, tick stamping, views.

The reducer is synchronous and deterministic, so none of this needs an
event loop — the asyncio layer is exercised separately.
"""

import pytest

from repro.graphs.streams import Update
from repro.serve import AdmissionError, ServeReducer, verify_determinism
from repro.serve.view import ForestView

from serve_harness import free_pair, small_config


def fresh(**overrides):
    return ServeReducer(small_config(**overrides))


class TestValidation:
    def test_unknown_vertex(self):
        r = fresh()
        with pytest.raises(AdmissionError) as exc:
            r.submit(Update.add(0, r.config.n + 5, 0.5))
        assert exc.value.code == "unknown-vertex"
        assert r.rejected == 1

    def test_duplicate_add_rejected(self):
        r = fresh()
        u, v = free_pair(r)
        r.submit(Update.add(u, v, 0.5))
        with pytest.raises(AdmissionError) as exc:
            r.submit(Update.add(u, v, 0.7))
        assert exc.value.code == "edge-exists"

    def test_delete_of_missing_edge_rejected(self):
        r = fresh()
        u, v = free_pair(r)
        with pytest.raises(AdmissionError) as exc:
            r.submit(Update.delete(u, v))
        assert exc.value.code == "edge-missing"

    def test_rejection_leaves_no_trace(self):
        """A rejected command must be invisible to the replay: no tick
        stamped, no log entry, no buffered update, no ledger charge."""
        r = fresh()
        u, v = free_pair(r)
        before = (r.ingestor.now, r.admitted, r.buffer.pending_cost, r.ledger_digest())
        with pytest.raises(AdmissionError):
            r.submit(Update.delete(u, v))
        assert (r.ingestor.now, r.admitted, r.buffer.pending_cost, r.ledger_digest()) == before

    def test_overlay_sees_pending_updates(self):
        """Validation must read through the buffer, not just the applied
        graph: add+delete of the same pair before any cut both admit."""
        r = fresh()  # two admissions: neither a full batch nor a deadline
        u, v = free_pair(r)
        r.submit(Update.add(u, v, 0.5))
        assert r.effective_present(u, v)
        r.submit(Update.delete(u, v))
        assert not r.effective_present(u, v)
        assert r.admitted == 2 and r.rejected == 0

    def test_overlay_pruned_after_cut(self):
        r = fresh()
        u, v = free_pair(r)
        r.submit(Update.add(u, v, 0.5))
        r.drain()
        # once shipped, presence reads from the applied shadow again
        assert r.buffer.pending_presence((u, v)) is None
        assert r.effective_present(u, v)


class TestTickStamping:
    def test_ticks_are_monotonic(self):
        r = fresh()
        ticks = []
        for _ in range(30):
            u, v = free_pair(r)
            ticks.append(r.submit(Update.add(u, v, 0.25)).tick)
        assert ticks == sorted(ticks)
        assert [t.tick for t in r.admitted_log] == ticks

    def test_empty_queue_stamps_current_tick(self):
        r = fresh()
        u, v = free_pair(r)
        first = r.submit(Update.add(u, v, 0.5))
        assert first.tick == 0

    def test_busy_queue_advances_one_tick(self):
        r = fresh()
        a = r.submit(Update.add(*free_pair(r), 0.5))
        b = r.submit(Update.add(*free_pair(r), 0.5))
        assert b.tick == a.tick + 1

    def test_cut_advances_clock_by_rounds(self):
        r = fresh()
        r.submit(Update.add(*free_pair(r), 0.5))
        before = r.ingestor.now
        changes = r.drain()
        assert changes, "drain must flush the pending update"
        spent = sum(max(1, c.rounds) for c in changes)
        assert r.ingestor.now == before + spent

    def test_seq_counts_the_admitted_log(self):
        r = fresh()
        seqs = [r.submit(Update.add(*free_pair(r), 0.5)).seq for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]


class TestPublish:
    def test_view_version_increments_per_cut(self):
        r = fresh()
        assert r.view.version == 0
        r.submit(Update.add(*free_pair(r), 0.5))
        changes = r.drain()
        assert r.view.version == len(changes) + 0
        assert changes[-1].version == r.view.version

    def test_change_diff_matches_view_diff(self):
        r = fresh()
        old = r.view
        u, v = free_pair(r)
        r.submit(Update.add(u, v, 1e-9))  # lightest edge: must join the MSF
        changes = r.drain()
        added = [e for c in changes for e in c.added]
        removed = [p for c in changes for p in c.removed]
        exp_added, exp_removed = old.diff(r.view)
        assert sorted(added) == sorted(exp_added)
        assert sorted(removed) == sorted(exp_removed)
        assert (u, v, 1e-9) in added

    def test_as_fields_is_jsonable(self):
        import json

        r = fresh()
        r.submit(Update.add(*free_pair(r), 0.5))
        (change, *_) = r.drain()
        fields = change.as_fields()
        assert json.loads(json.dumps(fields)) == fields

    def test_stats_shape(self):
        r = fresh()
        r.submit(Update.add(*free_pair(r), 0.5))
        r.drain()
        stats = r.stats()
        assert stats["admitted"] == 1
        assert stats["queue_depth"] == 0
        assert stats["cuts"] == r.ingestor.cuts >= 1
        assert stats["rejected"] == 0


class TestForestView:
    def test_component_labels_are_canonical(self):
        r = fresh()
        view = r.view
        assert view.edges
        for u, v in view.edges:
            assert view.component[u] == view.component[v]
        # every vertex labelled by the minimum vertex of its component
        for vtx, label in view.component.items():
            assert label <= vtx
            assert view.component[label] == label

    def test_same_component_consistent_with_labels(self):
        r = fresh()
        view = r.view
        verts = sorted(view.component)
        a, b = verts[0], verts[-1]
        assert view.same_component(a, b) == (
            view.component_of(a) == view.component_of(b)
        )

    def test_diff_roundtrip(self):
        r = fresh()
        old = r.view
        assert old.diff(old) == ([], [])
        r.submit(Update.add(*free_pair(r), 1e-9))
        r.drain()
        added, removed = old.diff(r.view)
        back_added, back_removed = r.view.diff(old)
        assert {e[:2] for e in added} == {e[:2] for e in back_removed}
        assert {e[:2] for e in back_added} == {e[:2] for e in removed}

    def test_capture_matches_core(self):
        r = fresh()
        view = ForestView.capture(r.dm, version=9, tick=4)
        assert view.version == 9 and view.tick == 4
        assert set(view.edges) == {
            (min(u, v), max(u, v)) for u, v, _w in r.dm.msf_edges()
        }
        assert view.stats()["forest_edges"] == len(view.edges)


class TestDrainAndGate:
    def test_drain_empties_the_buffer(self):
        r = fresh()
        for _ in range(3):
            r.submit(Update.add(*free_pair(r), 0.5))
        assert r.buffer.pending_cost > 0
        r.drain()
        assert r.buffer.pending_cost == 0
        assert r.drain() == []  # idempotent on an empty buffer

    def test_verify_requires_drained_buffer(self):
        r = fresh()
        r.submit(Update.add(*free_pair(r), 0.5))
        with pytest.raises(ValueError):
            verify_determinism(r)

    def test_gate_passes_and_reports_digests(self):
        r = fresh()
        for _ in range(12):
            r.submit(Update.add(*free_pair(r), 0.5))
        r.drain()
        verdict = verify_determinism(r)
        assert verdict["ok"] is True
        assert verdict["live_ledger_digest"] == verdict["replay_ledger_digest"]
        assert verdict["live_forest_digest"] == verdict["replay_forest_digest"]
        assert verdict["admitted"] == 12
        assert verdict["live_cuts"] == verdict["replay_cuts"]
