"""MPCDynamicMST end-to-end (Theorem 8.1)."""

import io
import json

import numpy as np
import pytest

from repro.errors import InconsistentUpdate
from repro.graphs import Update, churn_stream, random_weighted_graph
from repro.mpc import MPCDynamicMST
from repro.trace.recorder import TraceRecorder


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(5))
    def test_stream_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        m = int(rng.integers(0, n * (n - 1) // 2 // 2))
        g = random_weighted_graph(n, m, rng, connected=False)
        dm = MPCDynamicMST.build(g, int(rng.integers(2, 6)), rng=rng)
        dm.check()
        for batch in churn_stream(g, 4, 5, rng=rng):
            dm.apply_batch(batch)
            dm.check()

    def test_batch_capped_by_space(self, rng):
        g = random_weighted_graph(10, 15, rng)
        dm = MPCDynamicMST.build(g, 2, rng=rng, space=4)
        too_big = [Update.add(0, i + 1, 0.5) for i in range(5)]
        with pytest.raises(InconsistentUpdate):
            dm.apply_batch(too_big)

    def test_space_parameter_respected(self, rng):
        g = random_weighted_graph(20, 40, rng)
        dm = MPCDynamicMST.build(g, 4, rng=rng, space=123)
        assert dm.space == 123 and dm.net.space == 123

    def test_free_init_supported(self, rng):
        g = random_weighted_graph(20, 40, rng)
        dm = MPCDynamicMST.build(g, 4, rng=rng, init="free")
        dm.check()
        assert dm.init_rounds == 0

    def test_bad_init(self, rng):
        g = random_weighted_graph(10, 15, rng)
        with pytest.raises(ValueError):
            MPCDynamicMST.build(g, 2, rng=rng, init="warp")

    @pytest.mark.parametrize("backend,engine", [
        ("reference", "scalar"), ("inproc-columnar", "columnar"),
    ])
    def test_build_traces_init_on_the_named_engine(self, backend, engine):
        g = random_weighted_graph(40, 100, rng=0)
        buf = io.StringIO()
        rec = TraceRecorder(buf)
        dm = MPCDynamicMST.build(g, 4, rng=0, trace=rec, backend=backend)
        dm.detach_trace()
        rec.close()
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [e["type"] for e in events[:2]] == ["trace_start", "run_start"]
        assert events[1]["model"] == "mpc"
        assert [e["engine"] for e in events
                if e["type"] == "engine" and e["feature"] == "mpc_init"] == [engine]
        assert dm.init_rounds > 0
        assert events[-2]["type"] == "run_end"
        assert events[-2]["rounds"] == dm.init_rounds


class TestScaling:
    def test_batch_rounds_flat_as_space_grows(self):
        """Theorem 8.1: S updates in O(1) rounds; more space, not more
        rounds (bandwidth scales with S)."""
        rng = np.random.default_rng(1)
        means = {}
        for n in (100, 400):
            g = random_weighted_graph(n, 3 * n, rng)
            dm = MPCDynamicMST.build(g, 8, rng=rng, init="free")
            costs = [
                dm.apply_batch(b).rounds
                for b in churn_stream(dm.shadow.copy(), 8, 4, rng=rng)
            ]
            means[n] = float(np.mean(costs))
        assert means[400] <= 1.5 * means[100] + 5
