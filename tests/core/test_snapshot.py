"""Checkpoint / restore roundtrips."""

import json

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.core.snapshot import dump, from_snapshot, load, to_snapshot
from repro.errors import ReproError
from repro.graphs import churn_stream, random_weighted_graph
from repro.graphs.mst import msf_key_multiset


def _dm(seed=0, n=25, m=60, k=4):
    rng = np.random.default_rng(seed)
    g = random_weighted_graph(n, m, rng)
    return DynamicMST.build(g, k, rng=rng, init="free")


class TestRoundtrip:
    def test_state_identical(self):
        dm = _dm()
        snap = to_snapshot(dm)
        dm2 = from_snapshot(snap)
        dm2.check()
        assert msf_key_multiset(dm2.msf_edges()) == msf_key_multiset(dm.msf_edges())
        for a, b in zip(dm.states, dm2.states):
            assert a.record() == b.record()

    def test_json_serializable(self):
        dm = _dm()
        text = json.dumps(to_snapshot(dm))
        dm2 = from_snapshot(json.loads(text))
        dm2.check()

    def test_restored_keeps_updating(self, rng):
        dm = _dm(seed=1)
        stream = list(churn_stream(dm.shadow.copy(), 4, 6, rng=rng))
        for batch in stream[:3]:
            dm.apply_batch(batch)
        dm2 = from_snapshot(to_snapshot(dm))
        for batch in stream[3:]:
            dm.apply_batch(batch)
            dm2.apply_batch(batch)
        dm.check()
        dm2.check()
        assert msf_key_multiset(dm.msf_edges()) == msf_key_multiset(dm2.msf_edges())

    def test_restore_resets_ledger(self):
        dm = _dm(seed=2)
        dm.apply_batch([])
        dm2 = from_snapshot(to_snapshot(dm))
        assert dm2.rounds == 0

    def test_file_roundtrip(self, tmp_path):
        dm = _dm(seed=3)
        path = str(tmp_path / "ckpt.json")
        dump(dm, path)
        dm2 = load(path)
        dm2.check()

    def test_bad_format_rejected(self):
        dm = _dm()
        snap = to_snapshot(dm)
        snap["format"] = 99
        with pytest.raises(ReproError):
            from_snapshot(snap)


class TestMPCSnapshot:
    def test_mpc_roundtrip(self, rng):
        from repro.mpc import MPCDynamicMST
        from repro.graphs import churn_stream

        g = random_weighted_graph(20, 40, rng)
        dm = MPCDynamicMST.build(g, 4, rng=rng, init="free")
        dm2 = from_snapshot(to_snapshot(dm))
        dm2.check()
        assert type(dm2).__name__ == "MPCDynamicMST"
        assert dm2.space == dm.space
        for batch in churn_stream(dm2.shadow.copy(), 3, 2, rng=rng):
            dm2.apply_batch(batch)
        dm2.check()
